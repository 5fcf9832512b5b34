package soak

import (
	"strings"
	"testing"

	"selfstab/internal/beacon"
	"selfstab/internal/sim"
)

// A soak campaign's report must be byte-identical whether the executors
// under test schedule with the active frontier or with the full-scan
// reference engine, across the whole (protocol, model) matrix and with
// faults in flight.
func TestSoakReportByteIdenticalAcrossEngines(t *testing.T) {
	opt := Options{Seed: 42, Sizes: []int{8, 10}, Trials: 1, Events: 6, Workers: 2}
	campaign := func() string {
		var sb strings.Builder
		if _, err := Run(opt, &sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	frontier := campaign()

	sim.SetReferenceScan(true)
	beacon.SetReferenceScan(true)
	defer func() {
		sim.SetReferenceScan(false)
		beacon.SetReferenceScan(false)
	}()
	reference := campaign()

	if frontier != reference {
		t.Fatalf("soak reports diverged between engines:\nfrontier:\n%s\nreference:\n%s", frontier, reference)
	}
}
