package engine

import (
	"fmt"

	"repro/internal/coordspace"
	"repro/internal/core"
	"repro/internal/latency"
	"repro/internal/nps"
	"repro/internal/randx"
)

// npsAdapter implements CoordSystem over a simulated NPS deployment.
type npsAdapter struct {
	sys *nps.System
}

// NewNPSSharded wraps a fresh NPS deployment over m in the engine
// interface, its construction sharded across sh (per-node RNG stream
// derivation fans out; see nps.NewSystemSharded) — bit-identical for any
// worker count, like every sharded engine path.
func NewNPSSharded(m latency.Substrate, cfg nps.Config, seed int64, sh Sharder) CoordSystem {
	return &npsAdapter{sys: nps.NewSystemSharded(m, cfg, seed, sh)}
}

func (a *npsAdapter) Size() int                    { return a.sys.Size() }
func (a *npsAdapter) Space() coordspace.Space      { return a.sys.Space() }
func (a *npsAdapter) Substrate() latency.Substrate { return a.sys.Substrate() }
func (a *npsAdapter) Step(sh Sharder)              { a.sys.StepParallel(sh) }
func (a *npsAdapter) EligibleAttacker(i int) bool  { return !a.sys.IsLandmark(i) }
func (a *npsAdapter) Evaluable(i int) bool         { return !a.sys.IsLandmark(i) }
func (a *npsAdapter) Clone() CoordSystem           { return &npsAdapter{sys: a.sys.Clone()} }

func (a *npsAdapter) RemoveTaps(ids []int) {
	for _, id := range ids {
		a.sys.SetTap(id, nil)
	}
}

func (a *npsAdapter) Store() *coordspace.Store { return a.sys.Store() }

func (a *npsAdapter) Measure(peers [][]int, include func(int) bool, sh Sharder, out []float64) []float64 {
	return measure(a.sys.Substrate(), a.sys.Store(), peers, include, nil, sh, out)
}

func (a *npsAdapter) Inject(spec AttackSpec, malicious []int, seed int64) (*Injection, error) {
	sys := a.sys
	inj := &Injection{Malicious: malicious, MalSet: core.MemberSet(malicious), Target: -1}
	switch spec.Kind {
	case AttackNone:
		return inj, nil

	case AttackDisorder:
		for _, id := range malicious {
			sys.SetTap(id, core.NewNPSDisorder(id, seed))
		}

	case AttackAntiDetect:
		for _, id := range malicious {
			sys.SetTap(id, core.NewNPSAntiDetectionNaive(id, spec.KnowP, seed))
		}

	case AttackAntiDetectSoph:
		for _, id := range malicious {
			sys.SetTap(id, core.NewNPSAntiDetectionSophisticated(id, spec.KnowP, sys.Config().ProbeThresholdMS, seed))
		}

	case AttackColludingIsolation:
		inj.Victims = a.installColluding(malicious, inj.MalSet, spec.VictimFrac, seed)

	case AttackCombined:
		// Simple disorder, sophisticated anti-detection and colluding
		// isolation in equal parts (§5.4.4 closing experiment, fig. 26).
		groups := core.SplitEvenly(malicious, 3)
		for _, id := range groups[0] {
			sys.SetTap(id, core.NewNPSDisorder(id, seed))
		}
		for _, id := range groups[1] {
			sys.SetTap(id, core.NewNPSAntiDetectionSophisticated(id, 0.5, sys.Config().ProbeThresholdMS, seed))
		}
		inj.Victims = a.installColluding(groups[2], inj.MalSet, spec.VictimFrac, seed)

	default:
		return nil, fmt.Errorf("engine: attack %q is not applicable to nps", spec.Kind)
	}
	return inj, nil
}

// installColluding wires a conspiracy over the members and returns the
// chosen victim set: a fraction of the honest layer-2 population. Layer 2
// is the interesting layer: in a 3-layer system it holds ordinary hosts,
// in a 4-layer system its members serve as reference points for layer 3,
// which is what turns victim mis-positioning into system-wide error
// propagation (fig. 24/25).
func (a *npsAdapter) installColluding(members []int, malicious map[int]bool, victimFrac float64, seed int64) map[int]bool {
	sys := a.sys
	if victimFrac <= 0 {
		victimFrac = defaultNPSVictimFrac
	}
	pool := make([]int, 0)
	for _, id := range sys.NodesInLayer(2) {
		if !malicious[id] {
			pool = append(pool, id)
		}
	}
	k := int(victimFrac * float64(len(pool)))
	if k < 1 && len(pool) > 0 {
		k = 1
	}
	rng := randx.NewDerived(seed, "nps-victims", 0)
	victims := make(map[int]bool, k)
	for _, idx := range randx.Sample(rng, len(pool), k) {
		victims[pool[idx]] = true
	}
	c := core.NewNPSConspiracy(members, victims, sys.Space(), npsIsolationRadius, seed)
	for _, id := range members {
		sys.SetTap(id, core.NewNPSColludingIsolation(id, c, sys.Space(), seed))
	}
	return victims
}
