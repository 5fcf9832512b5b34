package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries the client span into the handler wrapper as
// "<trace>/<span>". Only the benchmark's own wrapper reads it; the
// service never sees a difference.
const spanHeader = "X-Bench-Span"

// span is one timed call the benchmark made into a layer's public
// function. Spans of one operation share Trace; Parent is 0 for a root.
type span struct {
	Trace  uint64            `json:"trace"`
	ID     uint64            `json:"span"`
	Parent uint64            `json:"parent"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no branches.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	// guarded by mu
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// at converts a wall-clock instant to the trace's nanosecond timeline.
func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.epoch)) }

// begin opens a span under parent; the zero parent starts a new trace.
func (t *tracer) begin(name string, parent span) span {
	if t == nil {
		return span{}
	}
	s := span{ID: t.ids.Add(1), Name: name, Start: t.at(time.Now())}
	if parent.ID == 0 {
		s.Trace = s.ID
	} else {
		s.Trace, s.Parent = parent.Trace, parent.ID
	}
	return s
}

// end closes s now and records it; attrs are key/value pairs.
func (t *tracer) end(s span, attrs ...string) {
	if t == nil {
		return
	}
	s.End = t.at(time.Now())
	t.record(s, attrs)
}

// interval records a child of parent whose bounds were stamped by the
// caller, e.g. the rounds between two RunHook callbacks.
func (t *tracer) interval(name string, parent span, start, end time.Time, attrs ...string) {
	if t == nil {
		return
	}
	s := t.begin(name, parent)
	s.Start, s.End = t.at(start), t.at(end)
	t.record(s, attrs)
}

func (t *tracer) record(s span, attrs []string) {
	if len(attrs) > 0 {
		s.Attrs = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			s.Attrs[attrs[i]] = attrs[i+1]
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
}

// snapshot returns the recorded spans ordered by start time.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// wrap times each call of h.ServeHTTP whose request names a client span
// in spanHeader as a "service.handler" span under it. Requests without
// one (set-up, the correctness checks, the reads around the reopen) are
// served untraced.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var parent span
		if _, err := fmt.Sscanf(r.Header.Get(spanHeader), "%d/%d", &parent.Trace, &parent.ID); err != nil || parent.ID == 0 {
			h.ServeHTTP(w, r)
			return
		}
		s := t.begin("service.handler", parent)
		h.ServeHTTP(w, r)
		t.end(s)
	})
}

// setSpanHeader names the client span s on an outgoing request.
func setSpanHeader(req *http.Request, s span) {
	if s.ID != 0 {
		req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", s.Trace, s.ID))
	}
}

// selfTimes returns, for each span, its duration minus the union of its
// children's intervals clipped to the span's own interval. Children may
// overlap each other (concurrent calls); the union counts shared time
// once.
func selfTimes(spans []span) []int64 {
	index := make(map[uint64]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	kids := make([][][2]int64, len(spans))
	for _, s := range spans {
		if p, ok := index[s.Parent]; ok && s.Parent != 0 {
			kids[p] = append(kids[p], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start - covered(s.Start, s.End, kids[i])
	}
	return out
}

// covered returns how much of [lo, hi) the intervals cover together.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// summarizeSpans adds, per span name, the call count, the p50/p99
// duration and the mean self time.
func summarizeSpans(res *result, spans []span) {
	self := selfTimes(spans)
	byName := make(map[string][]int)
	var names []string
	for i, s := range spans {
		if _, seen := byName[s.Name]; !seen {
			names = append(names, s.Name)
		}
		byName[s.Name] = append(byName[s.Name], i)
	}
	sort.Strings(names)
	for _, name := range names {
		idx := byName[name]
		durs := make([]float64, len(idx))
		var selfSum float64
		for k, i := range idx {
			durs[k] = ms(time.Duration(spans[i].End - spans[i].Start))
			selfSum += ms(time.Duration(self[i]))
		}
		res.add("span."+name+".n", float64(len(idx)), "count")
		res.addPct("span."+name+".p50_ms", durs, 50, "ms")
		res.addPct("span."+name+".p99_ms", durs, 99, "ms")
		res.add("span."+name+".self_ms.mean", selfSum/float64(len(idx)), "ms")
	}
}

// writeTrace writes the spans as a JSON array, one span per line.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	bw.WriteString("[\n")
	for i, s := range spans {
		b, err := json.Marshal(s)
		if err != nil {
			return fmt.Errorf("encode span %d: %w", s.ID, err)
		}
		bw.Write(b)
		if i < len(spans)-1 {
			bw.WriteByte(',')
		}
		bw.WriteByte('\n')
	}
	bw.WriteString("]\n")
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
