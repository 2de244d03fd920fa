package main

import (
	"fmt"
	"runtime"

	"repro/internal/coordspace"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/latency"
	"repro/internal/metrics"
	"repro/internal/nps"
	"repro/internal/randx"
	"repro/internal/vivaldi"
)

// The engine's own constants for an NPS deployment and the random
// baseline (internal/engine/run.go); a unit built here must match the
// engine's bit for bit.
const (
	npsProbeThresholdMS = 5000
	randomScale         = 50000
)

// unitSpec names one (system, run) unit of a scenario at a scale.
type unitSpec struct {
	kind engine.SystemKind
	run  engine.RunSpec
	sc   engine.Scale
}

// layer is the module whose kernel the unit's Step runs.
func (u unitSpec) layer() string {
	switch {
	case u.kind == engine.SystemNPS:
		return "nps"
	case engine.ResolveBackend(u.run, u.sc) == engine.BackendLive:
		return "daemon"
	}
	return "vivaldi"
}

func (u unitSpec) nodes() int { return u.run.ResolveNodes(u.sc) }

func (u unitSpec) repSeed() int64 { return randx.DeriveSeed(u.sc.Seed, string(u.kind)+"-rep", 0) }

// pacing returns the unit's converge and attack lengths and its sampling
// period, in ticks (Vivaldi) or rounds (NPS).
func (u unitSpec) pacing() (converge, attack, every int) {
	if u.kind == engine.SystemNPS {
		return u.sc.NPSConvergeRounds, u.sc.NPSAttackRounds, 1
	}
	return u.sc.VivaldiConvergeTicks, u.sc.VivaldiAttackTicks, u.sc.MeasureEvery
}

// substrate resolves the unit's latency substrate the way the engine's
// unit runner does for a population at or above the scale's.
func (u unitSpec) substrate(pool *engine.Pool) (latency.Substrate, error) {
	backend, _ := engine.ResolveSubstrate(u.run, u.sc)
	sc := u.sc
	if u.nodes() < sc.Nodes {
		return nil, fmt.Errorf("unit of %d nodes below the scale's %d: subgroup runs are not driven here", u.nodes(), sc.Nodes)
	}
	sc.Nodes = u.nodes()
	return engine.BaseSubstrate(sc, backend, pool), nil
}

// build constructs the unit's coordinate system through the engine's
// public constructors, with the configuration the engine's unit runner
// derives from the same spec.
func (u unitSpec) build(m latency.Substrate, pool *engine.Pool) (engine.CoordSystem, error) {
	r := u.run
	switch u.kind {
	case engine.SystemVivaldi:
		var space coordspace.Space
		if r.Dims > 0 {
			space = coordspace.Euclidean(r.Dims)
			if r.Height {
				space = coordspace.EuclideanHeight(r.Dims)
			}
		}
		cfg := vivaldi.Config{Space: space, Harden: r.Harden}
		if engine.ResolveBackend(r, u.sc) == engine.BackendLive {
			return engine.NewLiveNet(m, cfg, u.repSeed(), pool, engine.LiveNetConfig{}), nil
		}
		return engine.NewVivaldiSharded(m, cfg, u.repSeed(), pool), nil
	case engine.SystemNPS:
		cfg := nps.Config{
			Security:         r.Security,
			ProbeThresholdMS: npsProbeThresholdMS,
			Layers:           r.Layers,
			SolveIterations:  u.sc.NPSSolveIterations,
		}
		if r.Dims > 0 {
			cfg.Space = coordspace.Euclidean(r.Dims)
		}
		return engine.NewNPSSharded(m, cfg, u.repSeed(), pool), nil
	}
	return nil, fmt.Errorf("unknown system %q", u.kind)
}

// unitOf extracts series si's single run from a registered scenario.
func unitOf(id string, si int, sc engine.Scale) (unitSpec, error) {
	sp, ok := engine.Get(id)
	if !ok {
		return unitSpec{}, fmt.Errorf("scenario %s is not registered", id)
	}
	if si < 0 {
		si += len(sp.Series)
	}
	s := sp.Series[si]
	return unitSpec{kind: sp.EffectiveSystem(s), run: s.Runs[0], sc: sc}, nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// driveUnit is the benchmark-owned mirror of the engine's unit runner for
// a plain RunSpec (no schedule, churn, genesis or target tracking): the
// same public calls in the same order, one span per call, so the spans
// provably cover the work of engine.RunScenario — the returned mean-error
// series must equal the scenario's bit for bit. variant is appended to the
// span names, to tell a workload's second unit from its first. A nil tr
// drives the unit untraced.
func driveUnit(tr *tracer, wl, variant string, u unitSpec, pool *engine.Pool) ([]float64, error) {
	r := u.run
	if r.Schedule != nil || r.ChurnFrac > 0 || r.Genesis || r.MeasureFromStart || r.TrackTarget {
		return nil, fmt.Errorf("driveUnit handles plain run specs only")
	}
	layer := u.layer()
	unit := tr.begin(wl, "engine", "unit"+variant)
	defer tr.end(unit)

	sp := tr.begin(wl, "latency", "base_substrate"+variant)
	m, err := u.substrate(pool)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(wl, "metrics", "peer_sets"+variant)
	peers := metrics.PeerSets(m.Size(), u.sc.EvalPeers, randx.DeriveSeed(u.sc.Seed, "eval-peers", u.nodes()))
	tr.end(sp)
	sp = tr.begin(wl, layer, "build"+variant)
	cs, err := u.build(m, pool)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(wl, "metrics", "random_baseline"+variant)
	metrics.RandomBaseline(m, cs.Space(), peers, randomScale, randx.DeriveSeed(u.sc.Seed, "random-ref", u.nodes()))
	tr.end(sp)

	steps := func(name string, n int) {
		name += variant
		var before uint64
		if tr != nil {
			before = mallocs()
		}
		for i := 0; i < n; i++ {
			sp := tr.begin(wl, layer, name)
			cs.Step(pool)
			tr.end(sp)
		}
		if tr != nil {
			tr.count(wl, layer, name+"_mallocs", float64(mallocs()-before))
			tr.count(wl, layer, name+"_calls", float64(n))
		}
	}
	errs := make([]float64, cs.Size())
	measure := func(include func(int) bool) float64 {
		sp := tr.begin(wl, "metrics", "measure"+variant)
		cs.Measure(peers, include, pool, errs)
		tr.end(sp)
		return metrics.Mean(errs)
	}

	converge, attack, every := u.pacing()
	steps("step_clean", converge)
	measure(cs.Evaluable) // the engine's clean reference

	sp = tr.begin(wl, "core", "select_inject"+variant)
	malicious := core.SelectMalicious(cs.Size(), r.Frac, func(i int) bool {
		return !cs.EligibleAttacker(i) || (r.ExcludeTarget && i == r.Attack.Target)
	}, u.repSeed())
	malSet := core.MemberSet(malicious)
	_, err = cs.Inject(r.Attack, malicious, u.repSeed())
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	honest := func(i int) bool { return cs.Evaluable(i) && !malSet[i] }

	series := []float64{measure(honest)}
	for p := every; p <= attack; p += every {
		steps("step_attacked", every)
		series = append(series, measure(honest))
	}
	return series, nil
}
