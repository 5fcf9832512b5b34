package trace

import (
	"strings"
	"testing"

	"selfstab/internal/core"
	"selfstab/internal/graph"
	"selfstab/internal/sim"
)

func TestRecordAndMetric(t *testing.T) {
	tr := New("SMM", "matched")
	if err := tr.Record(0, 0, map[string]float64{"matched": 0}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Record(1, 3, map[string]float64{"matched": 2}); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if m0, m1 := tr.Rows[0].Metrics["matched"], tr.Rows[1].Metrics["matched"]; m0 != 0 || m1 != 2 {
		t.Fatalf("matched = %v, %v", m0, m1)
	}
}

func TestRecordRejectsUnknownMetric(t *testing.T) {
	tr := New("SMM", "matched")
	if err := tr.Record(0, 0, map[string]float64{"bogus": 1}); err == nil {
		t.Fatal("unknown metric accepted")
	}
}

func TestWriteCSV(t *testing.T) {
	tr := New("SMI", "inset")
	tr.Record(0, 0, map[string]float64{"inset": 1})
	tr.Record(1, 2, map[string]float64{"inset": 3})
	var sb strings.Builder
	if err := tr.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "round,moves,inset" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "0,0,1" || lines[2] != "1,2,3" {
		t.Fatalf("rows = %v", lines[1:])
	}
}

func TestRecordSMMOverRun(t *testing.T) {
	g := graph.Path(6)
	p := core.NewSMM()
	cfg := core.NewConfig[core.Pointer](g)
	for i := range cfg.States {
		cfg.States[i] = core.Null
	}
	tr := New(p.Name(), SMMColumns...)
	if err := RecordSMM(tr, 0, 0, cfg); err != nil {
		t.Fatal(err)
	}
	l := sim.NewLockstep[core.Pointer](p, cfg)
	res := l.RunHook(g.N()+2, func(round int, c core.Config[core.Pointer]) {
		if err := RecordSMM(tr, round, 0, c); err != nil {
			t.Fatal(err)
		}
	})
	if !res.Stable {
		t.Fatalf("%v", res)
	}
	// Final row must show everyone matched on an even path.
	final := tr.Rows[tr.Len()-1]
	if final.Metrics["M"] != 6 {
		t.Fatalf("final census M = %v, want 6", final.Metrics["M"])
	}
	// A' and PA columns must be zero from round 1 onward (Lemma 7).
	for _, r := range tr.Rows[1:] {
		if r.Metrics["A1"] != 0 || r.Metrics["PA"] != 0 {
			t.Fatalf("round %d: A1=%v PA=%v", r.Round, r.Metrics["A1"], r.Metrics["PA"])
		}
	}
}

func TestRecordSMI(t *testing.T) {
	g := graph.Star(4)
	cfg := core.NewConfig[bool](g)
	cfg.States[0] = true
	tr := New("SMI", SMIColumns...)
	if err := RecordSMI(tr, 0, 0, cfg); err != nil {
		t.Fatal(err)
	}
	if tr.Rows[0].Metrics["inset"] != 1 {
		t.Fatalf("inset = %v", tr.Rows[0].Metrics["inset"])
	}
}
