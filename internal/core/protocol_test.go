package core

import "testing"

// TestDeriveSeedGolden pins DeriveSeed's output in the three layouts
// its callers use. The values were recorded from the per-package mixers
// it replaced (the harness's cell seeds, the fault engine's injection
// streams and the service's corruption streams). A change here
// reshuffles every experiment table and soak report, and replays the
// corrupt entries of existing journals to different states.
func TestDeriveSeedGolden(t *testing.T) {
	cases := []struct {
		seed   int64
		names  []string
		coords []int
		want   int64
	}{
		// harness: (expID, stream), (n, trial)
		{1, []string{"E1", "cycle"}, []int{8, 0}, -6727032320959835914},
		{42, []string{"E15", "SMM/corrupt/graph"}, []int{3, 1}, 7745255199567961134},
		{-7, []string{"soak", "SMI/beacon/sched"}, []int{12, -1}, -881566458051001712},
		{0, []string{"", ""}, []int{0, 0}, 2679193189589203630},
		// faults: (stream), (event index, node index)
		{1, []string{"corrupt"}, []int{0, 0}, -2175511785456266622},
		{99, []string{"resurrect"}, []int{3, 2}, -2272624200763124696},
		{-5, []string{"churn"}, []int{7, 0}, -5449992611102173316},
		{0, []string{""}, []int{0, 0}, 1478988447937814594},
		// service: (stream), (node index)
		{7, []string{"corrupt"}, []int{0}, 1379733242234581328},
		{7, []string{"corrupt"}, []int{2}, 3279100013170886921},
		{-3, []string{"corrupt"}, []int{1}, 7074698611899293639},
		{0, []string{""}, []int{0}, 2040842546610870264},
	}
	for _, c := range cases {
		if got := DeriveSeed(c.seed, c.names, c.coords...); got != c.want {
			t.Errorf("DeriveSeed(%d, %q, %v) = %d, want %d", c.seed, c.names, c.coords, got, c.want)
		}
	}
}

// TestDeriveSeedAllocationFree: the service derives one seed per
// corrupted node, so the mixer must not allocate.
func TestDeriveSeedAllocationFree(t *testing.T) {
	stream := "corrupt"
	if a := testing.AllocsPerRun(100, func() { DeriveSeed(7, []string{stream}, 3) }); a != 0 {
		t.Fatalf("DeriveSeed allocates %v times per call", a)
	}
}
