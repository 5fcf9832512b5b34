package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"selfstab/internal/core"
	"selfstab/internal/graph"
)

// kernelOnly is a kernel protocol whose generic Move panics unless the
// test allows it, so a round that evaluates through Move instead of
// MoveBatch cannot go unnoticed.
type kernelOnly[S comparable] struct {
	core.Protocol[S]
	core.Kernel[S]
	allowMove bool
	moves     int
}

func (k *kernelOnly[S]) Move(v core.View[S]) (S, bool) {
	if !k.allowMove {
		panic(fmt.Sprintf("Move(%d) on a pin-free round", v.ID))
	}
	k.moves++
	return k.Protocol.Move(v)
}

// TestFaultLockstepKernelPath pins when FaultLockstep consults its
// overlay: pin-free rounds, corruptions included, run the batch kernel
// and never call Move; a DropLink or Freeze pin is served through Move
// in every round up to the Tick that expires it, and the kernel path
// resumes after that Tick.
func TestFaultLockstepKernelPath(t *testing.T) {
	t.Run("smm", func(t *testing.T) { testKernelPath[core.Pointer](t, core.NewSMM()) })
	t.Run("smi", func(t *testing.T) { testKernelPath[bool](t, core.NewSMI()) })
}

func testKernelPath[S comparable](t *testing.T, p interface {
	core.Protocol[S]
	core.Kernel[S]
}) {
	const n, pinRounds = 24, 3
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomConnected(n, 0.2, rng)
	cfg := core.NewConfig[S](g)
	cfg.Randomize(p, rng)
	k := &kernelOnly[S]{Protocol: p, Kernel: p}
	f := NewFaultLockstep[S](k, cfg)
	defer f.Close()

	settle := func(phase string) {
		t.Helper()
		for r := 0; r < 4*n; r++ {
			if f.Step() == 0 {
				break
			}
		}
		if f.l.filtered {
			t.Fatalf("%s: filter still on after the overlay emptied", phase)
		}
	}
	settle("from a random configuration")
	if f.l.Moves() == 0 {
		t.Fatal("the random configuration was already stable; the kernel path ran no move")
	}
	f.WriteState(3, p.Random(3, g.Neighbors(3), rng))
	settle("after a corruption")

	e := graph.NewEdge(0, g.Neighbors(0)[0])
	pins := []struct {
		name   string
		pin    func()
		viewer graph.NodeID
	}{
		{"drop", func() { f.DropLink(e, pinRounds) }, e.U},
		{"freeze", func() { f.Freeze(7, pinRounds) }, 7},
	}
	for _, pc := range pins {
		k.allowMove = true
		pc.pin()
		for r := 1; r <= pinRounds; r++ {
			if !f.l.filtered {
				t.Fatalf("%s: filter off in pinned round %d", pc.name, r)
			}
			f.l.DirtyView(pc.viewer) // the pinned viewer evaluates every round
			before := k.moves
			f.Step()
			if k.moves == before {
				t.Fatalf("%s: pinned round %d never called Move", pc.name, r)
			}
		}
		k.allowMove = false
		if f.l.filtered {
			t.Fatalf("%s: filter still on after the expiring Tick", pc.name)
		}
		f.l.DirtyView(pc.viewer)
		settle(pc.name + " expired")
	}
}
