package harness

import (
	"strings"
	"testing"

	"selfstab/internal/beacon"
	"selfstab/internal/sim"
)

// The experiment tables rendered by cmd/experiments must be
// byte-identical whether the executors schedule with the active
// frontier (production default) or with the full-scan reference engine:
// frontier scheduling is an optimization, never an observable change.
func TestExperimentTablesByteIdenticalAcrossEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite twice")
	}
	render := func() string {
		var sb strings.Builder
		if _, err := RunAll(QuickOptions(), &sb, false); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	frontier := render()

	sim.SetReferenceScan(true)
	beacon.SetReferenceScan(true)
	defer func() {
		sim.SetReferenceScan(false)
		beacon.SetReferenceScan(false)
	}()
	reference := render()

	if frontier != reference {
		d := firstDiffLine(frontier, reference)
		t.Fatalf("experiment tables diverged between engines at line %d:\nfrontier:  %q\nreference: %q",
			d.line, d.a, d.b)
	}
}

type diff struct {
	line int
	a, b string
}

func firstDiffLine(a, b string) diff {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) || i < len(lb); i++ {
		va, vb := "", ""
		if i < len(la) {
			va = la[i]
		}
		if i < len(lb) {
			vb = lb[i]
		}
		if va != vb {
			return diff{line: i + 1, a: va, b: vb}
		}
	}
	return diff{}
}
