package engine

import (
	"fmt"

	"repro/internal/coordspace"
	"repro/internal/core"
	"repro/internal/latency"
	"repro/internal/metrics"
	"repro/internal/randx"
	"repro/internal/vivaldi"
)

// vivaldiAdapter implements CoordSystem over a simulated Vivaldi
// population.
type vivaldiAdapter struct {
	sys *vivaldi.System
}

// NewVivaldiSharded wraps a fresh Vivaldi population over m in the engine
// interface, its construction (stream seeding, spring selection) sharded
// across sh (nil = serial) — bit-identical for any worker count, and the
// way the scenario runner builds 25k+-node systems.
func NewVivaldiSharded(m latency.Substrate, cfg vivaldi.Config, seed int64, sh Sharder) CoordSystem {
	return &vivaldiAdapter{sys: vivaldi.NewSystemSharded(m, cfg, seed, sh)}
}

func (a *vivaldiAdapter) Size() int                    { return a.sys.Size() }
func (a *vivaldiAdapter) Space() coordspace.Space      { return a.sys.Space() }
func (a *vivaldiAdapter) Substrate() latency.Substrate { return a.sys.Substrate() }
func (a *vivaldiAdapter) Step(sh Sharder)              { a.sys.StepParallel(sh) }
func (a *vivaldiAdapter) EligibleAttacker(i int) bool  { return true }
func (a *vivaldiAdapter) Evaluable(i int) bool         { return true }
func (a *vivaldiAdapter) ResetNode(i int)              { a.sys.ResetNode(i) }
func (a *vivaldiAdapter) Neighbors(i int) []int        { return a.sys.Neighbors(i) }
func (a *vivaldiAdapter) Clone() CoordSystem           { return &vivaldiAdapter{sys: a.sys.Clone()} }

func (a *vivaldiAdapter) RemoveTaps(ids []int) {
	for _, id := range ids {
		a.sys.SetTap(id, nil)
	}
}

// ApplyPartition / HealPartition sever and restore probe links — on the
// in-memory backend a blocked probe yields no sample (its RNG draws are
// still consumed, preserving stream alignment).
func (a *vivaldiAdapter) ApplyPartition(x, y []bool) int { return a.sys.ApplyPartition(x, y) }
func (a *vivaldiAdapter) HealPartition(id int)           { a.sys.HealPartition(id) }

func (a *vivaldiAdapter) Store() *coordspace.Store { return a.sys.Store() }

func (a *vivaldiAdapter) Measure(peers [][]int, include func(int) bool, sh Sharder, out []float64) []float64 {
	return measure(a.sys.Substrate(), a.sys.Store(), peers, include, a.sys.Adjustments(), sh, out)
}

func (a *vivaldiAdapter) Inject(spec AttackSpec, malicious []int, seed int64) (*Injection, error) {
	return installVivaldiTaps(a.sys, spec, malicious, seed)
}

// tapInstaller is what the shared Vivaldi attack installer needs from a
// population: the in-memory vivaldi.System and the live backend both
// provide it.
type tapInstaller interface {
	SetTap(id int, t vivaldi.Tap)
	Size() int
	Space() coordspace.Space
}

// installVivaldiTaps interprets the paper's Vivaldi attack taxonomy over
// any tap-accepting population — the single statement of which tap each
// AttackSpec kind installs, shared by the in-memory adapter and the live
// backend so an attack means the same thing on both.
func installVivaldiTaps(sys tapInstaller, spec AttackSpec, malicious []int, seed int64) (*Injection, error) {
	inj := &Injection{Malicious: malicious, MalSet: core.MemberSet(malicious), Target: -1}
	switch spec.Kind {
	case AttackNone:
		return inj, nil

	case AttackDisorder:
		for _, id := range malicious {
			sys.SetTap(id, core.NewVivaldiDisorder(id, seed))
		}

	case AttackRepulsion:
		if spec.SubsetFrac > 0 {
			// Each attacker victimizes its own independently drawn subset
			// (fig. 7).
			k := int(spec.SubsetFrac * float64(sys.Size()))
			if k < 1 {
				k = 1
			}
			for _, id := range malicious {
				rng := randx.NewDerived(seed, "subset-victims", id)
				victims := make(map[int]bool, k)
				for _, v := range randx.Sample(rng, sys.Size(), k) {
					victims[v] = true
				}
				sys.SetTap(id, core.NewVivaldiRepulsion(id, sys.Space(), repulsionScale, victims, seed))
			}
		} else {
			for _, id := range malicious {
				sys.SetTap(id, core.NewVivaldiRepulsion(id, sys.Space(), repulsionScale, nil, seed))
			}
		}

	case AttackColludeRepel:
		c := core.NewConspiracy(spec.Target, sys.Space(), repulsionScale, lureClusterNorm, seed)
		for _, id := range malicious {
			sys.SetTap(id, core.NewVivaldiColludeRepel(id, c))
		}
		inj.Target = spec.Target

	case AttackFrogBoil:
		for _, id := range malicious {
			sys.SetTap(id, core.NewVivaldiFrogBoil(id, sys.Space(), seed))
		}

	case AttackColludeLure:
		c := core.NewConspiracy(spec.Target, sys.Space(), repulsionScale, lureClusterNorm, seed)
		for _, id := range malicious {
			sys.SetTap(id, core.NewVivaldiColludeLure(id, c, sys.Space()))
		}
		inj.Target = spec.Target

	case AttackCombined:
		// Split evenly between disorder, repulsion and colluding isolation
		// strategy 1 (§5.3.4).
		groups := core.SplitEvenly(malicious, 3)
		c := core.NewConspiracy(spec.Target, sys.Space(), repulsionScale, lureClusterNorm, seed)
		for _, id := range groups[0] {
			sys.SetTap(id, core.NewVivaldiDisorder(id, seed))
		}
		for _, id := range groups[1] {
			sys.SetTap(id, core.NewVivaldiRepulsion(id, sys.Space(), repulsionScale, nil, seed))
		}
		for _, id := range groups[2] {
			sys.SetTap(id, core.NewVivaldiColludeRepel(id, c))
		}
		inj.Target = spec.Target

	default:
		return nil, fmt.Errorf("engine: attack %q is not applicable to vivaldi", spec.Kind)
	}
	return inj, nil
}

// measure is the shared sharded measurement pass: per-node mean relative
// error against the true matrix over fixed peer sets, swept directly off
// the flat coordinate store (no snapshot materialisation). adj, when
// non-nil, holds per-node distance adjustment terms (the hardened-Vivaldi
// refinement) added to every predicted distance. out is reused when the
// caller provides it.
func measure(m latency.Substrate, st *coordspace.Store, peers [][]int, include func(int) bool, adj []float64, sh Sharder, out []float64) []float64 {
	if out == nil {
		out = make([]float64, st.Len())
	}
	sh.ForEach(st.Len(), func(_, lo, hi int) {
		metrics.NodeErrorsShard(m, st, peers, include, adj, lo, hi, out)
	})
	return out
}
