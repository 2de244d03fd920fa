// Secure Vivaldi: quantify how much of the paper's attack surface the
// cheap local defenses close (the §6 future-work direction). Runs the
// same injected attacks against a plain Vivaldi system and one whose
// nodes install the defense sample-guard, and prints both error ratios.
package main

import (
	"fmt"

	vna "repro"
)

const (
	nodes = 200
	seed  = 3
	frac  = 0.30
)

func main() {
	internet := vna.GenerateInternet(nodes, seed)
	peers := vna.EvalPeers(nodes, 0, seed)

	attacks := []struct {
		name string
		tap  func(sys *vna.VivaldiSystem, id int, c *vna.Conspiracy) vna.VivaldiTap
	}{
		{"disorder", func(sys *vna.VivaldiSystem, id int, c *vna.Conspiracy) vna.VivaldiTap {
			return vna.NewDisorderAttack(id, seed)
		}},
		{"repulsion", func(sys *vna.VivaldiSystem, id int, c *vna.Conspiracy) vna.VivaldiTap {
			return vna.NewRepulsionAttack(id, sys.Space(), nil, seed)
		}},
		{"colluding isolation", func(sys *vna.VivaldiSystem, id int, c *vna.Conspiracy) vna.VivaldiTap {
			return vna.NewColludingRepelAttack(id, c)
		}},
	}

	fmt.Printf("30%% attackers, %d nodes; error ratio vs clean system (1.0 = unharmed)\n\n", nodes)
	fmt.Printf("%-22s %-12s %-12s\n", "attack", "undefended", "defended")
	for _, atk := range attacks {
		plain := run(internet, peers, atk.tap, false)
		guarded := run(internet, peers, atk.tap, true)
		fmt.Printf("%-22s %-12.1f %-12.1f\n", atk.name, plain, guarded)
	}
	fmt.Println("\ndefense: RTT window + error floor + coordinate bound + step clamp")
}

func run(internet *vna.Matrix, peers [][]int,
	tap func(*vna.VivaldiSystem, int, *vna.Conspiracy) vna.VivaldiTap, defended bool) float64 {

	cfg := vna.VivaldiConfig{}
	if defended {
		cfg.SampleGuard = vna.NewDefenseGuard(vna.DefenseConfig{})
	}
	sys := vna.NewVivaldi(internet, cfg, seed)
	sys.Run(1500)
	clean := vna.AverageError(internet, sys.Space(), sys.Coords(), peers, nil)

	conspiracy := vna.NewConspiracy(0, sys.Space(), seed)
	attackers := vna.SelectMalicious(internet.Size(), frac, func(i int) bool { return i == 0 }, seed)
	malicious := make(map[int]bool, len(attackers))
	for _, id := range attackers {
		malicious[id] = true
		sys.SetTap(id, tap(sys, id, conspiracy))
	}
	sys.Run(1500)
	honest := func(i int) bool { return !malicious[i] }
	attacked := vna.AverageError(internet, sys.Space(), sys.Coords(), peers, honest)
	return attacked / clean
}
