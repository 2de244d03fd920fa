package engine

// RunUnshared is RunScenario without the plan's grouping: every unit builds
// and converges its own system through runUnit, one after the other. It is
// the reference the shared path must equal bit for bit (shared_test.go); a
// test helper, not a mode.
func RunUnshared(spec ScenarioSpec, sc Scale, pool *Pool) (*Result, error) {
	p, err := newPlan(spec, sc)
	if err != nil {
		return nil, err
	}
	peers := p.peerSets(sc, pool)
	units := make([]unitResult, len(p.runs)*p.reps)
	for u := range units {
		k := p.runs[u/p.reps]
		units[u] = runUnit(k.kind, k.run, sc, u%p.reps, pool, peers[k.run.ResolveNodes(sc)], nil)
	}
	return p.reduce(spec, sc, units)
}
