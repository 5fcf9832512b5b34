// Command clusterhead uses the hierarchically composed clustering
// protocol for the classical ad hoc organization task: Algorithm SMI
// elects clusterheads (an MIS: no two heads in radio range, every host
// hears a head) while a second self-stabilizing layer assigns every
// other host to its maximum-ID head neighbor — all in the same rounds.
// The demo then fails links between epochs and shows both layers
// self-healing together.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sort"

	"selfstab"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("clusterhead: ")
	n := flag.Int("n", 30, "number of hosts")
	churn := flag.Int("churn", 4, "link events between elections")
	rounds := flag.Int("rounds", 3, "election epochs")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	g, _ := selfstab.RandomUnitDisk(*n, 0.18, rng)
	fmt.Printf("unit-disk network: %v\n", g)

	p := selfstab.NewClustering()
	states := make([]selfstab.ClusterState, *n)
	for v := range states {
		states[v] = p.Random(selfstab.NodeID(v), g.Neighbors(selfstab.NodeID(v)), rng)
	}
	net := selfstab.NewFaultLockstep[selfstab.ClusterState](p, selfstab.Config[selfstab.ClusterState]{G: g, States: states})
	defer net.Close()

	for epoch := 0; epoch < *rounds; epoch++ {
		res := net.Lockstep().Run(g.N() + 4)
		if !res.Stable {
			log.Fatalf("epoch %d: election did not stabilize", epoch)
		}
		cfg := net.Config()
		var heads []selfstab.NodeID
		for v, s := range cfg.States {
			if s.A {
				heads = append(heads, selfstab.NodeID(v))
			}
		}
		if err := selfstab.IsMaximalIndependentSet(g, heads); err != nil {
			log.Fatalf("epoch %d: invalid head set: %v", epoch, err)
		}
		if err := selfstab.VerifyClustering(g, cfg.States); err != nil {
			log.Fatalf("epoch %d: invalid assignment: %v", epoch, err)
		}
		fmt.Printf("epoch %d: %d clusterheads elected and assigned in %d rounds\n",
			epoch, len(heads), res.Rounds)
		printClusters(cfg.States, heads)

		if epoch < *rounds-1 {
			// Churn edits the graph it is given, so it draws on a copy;
			// SetLink then makes each flip on g and nulls any member's
			// head pointer across a lost link.
			events := selfstab.NewChurn(g.Clone(), rng).Apply(*churn)
			for _, ev := range events {
				net.SetLink(ev.Edge, ev.Add)
			}
			fmt.Printf("  mobility: %v\n", events)
		}
	}
}

// printClusters groups nodes by their assigned head pointer.
func printClusters(states []selfstab.ClusterState, heads []selfstab.NodeID) {
	members := make(map[selfstab.NodeID][]selfstab.NodeID)
	for v, s := range states {
		if !s.A && !s.B.IsNull() {
			members[s.B.Node()] = append(members[s.B.Node()], selfstab.NodeID(v))
		}
	}
	sorted := append([]selfstab.NodeID(nil), heads...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, h := range sorted {
		fmt.Printf("  head %2d: members %v\n", h, members[h])
	}
}
