package faults

import "selfstab/internal/graph"

// Shrink minimizes a failing schedule: it repeatedly drops event chunks
// (coarse to fine, ddmin style) and then shortens the surviving events
// (durations, target lists, churn counts), keeping every candidate that
// still fails, until a fixed point or the run budget is exhausted. The
// failing predicate must re-run the candidate from scratch — because
// every event draws its injection randomness from its own derived
// stream, removing one event does not perturb the others, so failures
// shrink stably.
//
// Shrink is fully deterministic: candidates are enumerated in a fixed
// order and no randomness is consumed.
func Shrink(sched Schedule, failing func(Schedule) bool, maxRuns int) Schedule {
	if maxRuns <= 0 {
		maxRuns = 256
	}
	runs := 0
	try := func(c Schedule) bool {
		if runs >= maxRuns {
			return false
		}
		runs++
		return failing(c)
	}
	cur := sched
	for {
		next := shrinkEvents(cur, try)
		next = shrinkFields(next, try)
		if len(next.Events) == len(cur.Events) && eventsEqual(next.Events, cur.Events) {
			return next
		}
		cur = next
		if runs >= maxRuns {
			return cur
		}
	}
}

// shrinkEvents removes chunks of events, halving the chunk size from
// half the schedule down to single events.
func shrinkEvents(cur Schedule, try func(Schedule) bool) Schedule {
	for size := (len(cur.Events) + 1) / 2; size >= 1; size /= 2 {
		for i := 0; i+size <= len(cur.Events); {
			cand := withoutEvents(cur, i, size)
			if try(cand) {
				cur = cand // same i now points at the next chunk
			} else {
				i += size
			}
		}
	}
	return cur
}

// shrinkFields reduces each surviving event in place: durations and
// churn counts toward 1, node and link target lists toward a single
// element.
func shrinkFields(cur Schedule, try func(Schedule) bool) Schedule {
	for i := range cur.Events {
		cur = shrinkInt(cur, i, try, func(e *Event) *int { return &e.Dur })
		cur = shrinkInt(cur, i, try, func(e *Event) *int { return &e.K })
		cur = shrinkList(cur, i, try, func(e *Event) *[]graph.NodeID { return &e.Nodes })
		cur = shrinkList(cur, i, try, func(e *Event) *[]graph.Edge { return &e.Links })
	}
	return cur
}

// shrinkInt lowers one integer field toward 1: first straight to 1,
// then by halving.
func shrinkInt(cur Schedule, i int, try func(Schedule) bool, field func(*Event) *int) Schedule {
	for {
		v := *field(&cur.Events[i])
		if v <= 1 {
			return cur
		}
		for _, next := range []int{1, v / 2} {
			if next >= v {
				continue
			}
			cand := cloneSchedule(cur)
			*field(&cand.Events[i]) = next
			if try(cand) {
				cur = cand
				break
			}
		}
		if *field(&cur.Events[i]) == v {
			return cur // no candidate failed; field is minimal
		}
	}
}

// shrinkList reduces one list field of event i toward a single
// element: it tries each half, then each single element, keeps the
// first candidate that still fails and starts over, until none does.
func shrinkList[T any](cur Schedule, i int, try func(Schedule) bool, field func(*Event) *[]T) Schedule {
	for {
		list := *field(&cur.Events[i])
		if len(list) <= 1 {
			return cur
		}
		cands := [][]T{list[:len(list)/2], list[len(list)/2:]}
		for j := range list {
			cands = append(cands, list[j:j+1])
		}
		shrunk := false
		for _, cand := range cands {
			c := cloneSchedule(cur)
			*field(&c.Events[i]) = append([]T(nil), cand...)
			if try(c) {
				cur, shrunk = c, true
				break
			}
		}
		if !shrunk {
			return cur
		}
	}
}

// withoutEvents drops events [i, i+size).
func withoutEvents(s Schedule, i, size int) Schedule {
	events := make([]Event, 0, len(s.Events)-size)
	events = append(events, s.Events[:i]...)
	events = append(events, s.Events[i+size:]...)
	return Schedule{Seed: s.Seed, Events: events}
}

// cloneSchedule deep-copies a schedule so candidates can be mutated.
func cloneSchedule(s Schedule) Schedule {
	events := make([]Event, len(s.Events))
	for i, ev := range s.Events {
		ev.Nodes = append([]graph.NodeID(nil), ev.Nodes...)
		ev.Links = append([]graph.Edge(nil), ev.Links...)
		events[i] = ev
	}
	return Schedule{Seed: s.Seed, Events: events}
}

// eventsEqual compares two event lists structurally.
func eventsEqual(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Round != b[i].Round || a[i].Kind != b[i].Kind ||
			a[i].K != b[i].K || a[i].Dur != b[i].Dur ||
			len(a[i].Nodes) != len(b[i].Nodes) || len(a[i].Links) != len(b[i].Links) {
			return false
		}
		for j := range a[i].Nodes {
			if a[i].Nodes[j] != b[i].Nodes[j] {
				return false
			}
		}
		for j := range a[i].Links {
			if a[i].Links[j] != b[i].Links[j] {
				return false
			}
		}
	}
	return true
}
