package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"selfstab/internal/graph"
	"selfstab/internal/service"
)

// tiny shrinks a workload to smoke-test size: 64–2k-node tenants and a
// 10k-node converge.
func tiny(w workload) workload {
	switch w.name {
	case "mut-small":
		w.tenants = alternating(4, 64)
	case "mut-large":
		w.tenants = alternating(1, 2000)
	case "read-mix":
		w.tenants = alternating(2, 500)
	case "converge-1m":
		w.convergeN = 10_000
	}
	return w
}

// TestWorkloadsSmoke runs every workload traced at tiny scale — 20 ops
// per client, one converge sweep — and requires every listed metric with
// its unit and no failed operation or check.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			ops := 20
			if w.convergeN > 0 {
				ops = 1
			}
			res := runWorkload(tiny(w), runConfig{seed: 7, ops: ops, trace: true, dir: t.TempDir()})
			for _, defs := range [][]metricDef{endToEnd, perLayer} {
				for _, d := range defs {
					m, ok := res.lookup(d.name)
					if !ok {
						t.Errorf("metric %s missing", d.name)
					} else if m.unit != d.unit {
						t.Errorf("metric %s has unit %q, want %q", d.name, m.unit, d.unit)
					}
				}
			}
			var out, errs bytes.Buffer
			if code := report(res, &out, &errs, perLayer); code != 0 || res.failed != 0 {
				t.Fatalf("exit %d, %d of %d failed:\n%s", code, res.failed, res.attempted, errs.String())
			}
			if m, _ := res.lookup("fail_frac"); m.value != 0 {
				t.Errorf("fail_frac = %v", m.value)
			}
		})
	}
}

// TestWrongMembershipFailsRun injects wrong membership answers: the
// check must reject them, and a run holding such a failure must print
// correct=false and exit non-zero.
func TestWrongMembershipFailsRun(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3
	for _, c := range []struct {
		protocol, body string
		ok             bool
	}{
		{service.ProtocolSMM, `{"edges":[[0,1],[2,3]]}`, true},
		{service.ProtocolSMM, `{"edges":[[0,1]]}`, false},       // edge {2,3} unmatched: not maximal
		{service.ProtocolSMM, `{"edges":[[0,1],[1,2]]}`, false}, // node 1 matched twice
		{service.ProtocolSMI, `{"nodes":[0,2]}`, true},
		{service.ProtocolSMI, `{"nodes":[0,1]}`, false}, // adjacent members
		{service.ProtocolSMI, `{"nodes":[0]}`, false},   // node 2 undominated
	} {
		if err := checkMembership(c.protocol, g, []byte(c.body)); (err == nil) != c.ok {
			t.Errorf("%s %s: err = %v, want ok=%v", c.protocol, c.body, err, c.ok)
		}
	}

	res := &result{workload: "injected"}
	for _, d := range endToEnd {
		res.add(d.name, 1, d.unit)
	}
	err := checkMembership(service.ProtocolSMM, g, []byte(`{"edges":[[0,1]]}`))
	res.check(err == nil, "membership: %v", err)
	var out, errs bytes.Buffer
	if code := report(res, &out, &errs, endToEnd); code == 0 {
		t.Fatal("a failed check exited 0")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Correct || last.Failed != 1 {
		t.Fatalf("last line %q: correct=%v failed=%d err=%v", lines[len(lines)-1], last.Correct, last.Failed, err)
	}
}

// TestSelfTimeOverlappingChildren pins self time on a hand-built tree:
// children that overlap each other count once, and a child running past
// its parent's end counts only inside the parent.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Trace: 1, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Trace: 1, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Trace: 1, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Trace: 1, Parent: 2, Name: "a1", Start: 15, End: 20},
		{ID: 6, Trace: 6, Name: "other", Start: 0, End: 7},
	}
	want := []int64{40, 25, 30, 30, 5, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which the command
// line and the comparisons read, in step with the metrics and workloads
// the benchmark reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		code []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark %d", len(c.json), len(c.code))
		}
		for i, d := range c.code {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, c.json[i], d)
			}
		}
	}
}
