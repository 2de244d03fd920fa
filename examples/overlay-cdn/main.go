// Overlay replica selection under attack — the application scenario the
// paper's introduction motivates. A CDN-style overlay uses coordinates to
// send each client to its nearest replica instead of pinging every
// replica. This example measures the selection quality (RTT stretch vs
// the true optimum) on a clean system, then under a colluding isolation
// attack against one replica, showing how coordinate attacks translate
// into application-level damage (traffic steered to the attackers' side).
//
// Replica picks go through the serving layer (vna.ServeEngine): the
// simulation publishes an immutable coordinate snapshot and clients query
// EstimateRTT against it — the same consumer path vna-serve exposes, so
// the damage measured here is damage to served answers, not to internal
// simulator state.
package main

import (
	"fmt"
	"math"

	vna "repro"
)

const (
	nodes    = 220
	replicas = 5
	seed     = 7
)

func main() {
	internet := vna.GenerateInternet(nodes, seed)
	sys := vna.NewVivaldi(internet, vna.VivaldiConfig{}, seed)
	eng := vna.NewServeEngine()

	sys.Run(1800)
	snap := eng.Publish(sys.Store(), 1800)

	// The first `replicas` node ids act as replica servers; everyone else
	// is a client.
	fmt.Println("replica selection quality, clean coordinates:")
	report(internet, sys, snap)

	// A conspiracy isolates replica 0: all honest nodes are consistently
	// pushed away from it in the coordinate space, so no client selects
	// it anymore even though it is often the true nearest replica.
	conspiracy := vna.NewConspiracy(0, sys.Space(), seed)
	attackers := vna.SelectMalicious(nodes, 0.30, func(i int) bool { return i < replicas }, seed)
	for _, id := range attackers {
		sys.SetTap(id, vna.NewColludingRepelAttack(id, conspiracy))
	}
	sys.Run(1500)
	snap = eng.Publish(sys.Store(), 3300)

	fmt.Printf("\nafter colluding isolation of replica 0 (30%% attackers):\n")
	report(internet, sys, snap)

	st := eng.Stats()
	fmt.Printf("\nserve engine: %d snapshots published, epoch %d at tick %d, max staleness %d ticks\n",
		st.Published, st.Epoch, st.Tick, st.MaxStalenessTicks)
}

// report computes, over all honest clients, how much worse the
// snapshot-chosen replica is than the true nearest one, plus each
// replica's served k-NN neighborhood size sanity check.
func report(internet *vna.Matrix, sys *vna.VivaldiSystem, snap *vna.ServeSnapshot) {
	var (
		sumStretch float64
		clients    int
		hits       int
		chosen     = make([]int, replicas)
	)
	for c := replicas; c < internet.Size(); c++ {
		if sys.IsMalicious(c) {
			continue
		}
		bestPred, bestTrue := -1, -1
		for r := 0; r < replicas; r++ {
			if bestPred < 0 || snap.EstimateRTT(c, r) < snap.EstimateRTT(c, bestPred) {
				bestPred = r
			}
			if bestTrue < 0 || internet.RTT(c, r) < internet.RTT(c, bestTrue) {
				bestTrue = r
			}
		}
		chosen[bestPred]++
		if bestPred == bestTrue {
			hits++
		}
		if t := internet.RTT(c, bestTrue); t > 0 {
			sumStretch += internet.RTT(c, bestPred) / t
		} else {
			sumStretch += 1
		}
		clients++
	}
	fmt.Printf("  correct nearest-replica picks: %d/%d (%.0f%%)\n",
		hits, clients, 100*float64(hits)/float64(clients))
	fmt.Printf("  mean RTT stretch vs optimum:   %.2fx\n", sumStretch/float64(clients))
	for r, n := range chosen {
		bar := ""
		for i := 0; i < int(math.Round(40*float64(n)/float64(clients))); i++ {
			bar += "#"
		}
		fmt.Printf("  replica %d chosen by %3d clients %s\n", r, n, bar)
	}

	// The spatial index answers proximity directly: replica 0's served
	// neighborhood — under the isolation attack the honest crowd recedes
	// and its nearest served distances balloon.
	var sc vna.ServeScratch
	nbs := snap.NearestK(0, 3, &sc, nil)
	fmt.Printf("  replica 0 served 3-NN:        ")
	for _, nb := range nbs {
		fmt.Printf(" node %d (%.0f ms)", nb.ID, nb.Dist)
	}
	fmt.Println()
}
