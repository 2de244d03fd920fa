package engine

import (
	"fmt"
	"math"

	"repro/internal/coordspace"
	"repro/internal/core"
	"repro/internal/latency"
	"repro/internal/metrics"
	"repro/internal/nps"
	"repro/internal/randx"
	"repro/internal/vivaldi"
)

// npsProbeThresholdMS is the paper's probe threshold (§3.1), applied to
// every NPS deployment the scenarios build (the Security flag controls the
// filter; the threshold models measurement hygiene both ways).
const npsProbeThresholdMS = 5000

// randomScale is the coordinate radius of the paper's random baseline
// (§5.1).
const randomScale = 50000

// unitResult is the outcome of one repetition of one RunSpec.
type unitResult struct {
	ticks     []int     // absolute sample positions
	meanErr   []float64 // mean honest error per sample
	ratio     []float64 // meanErr / this rep's clean reference
	targetErr []float64 // tracked target's own error per sample

	cleanRef  float64 // converged error at injection time (NaN for genesis)
	finalMean float64 // mean honest error at the last sample
	randomRef float64 // random-coordinate baseline (rep 0 only)

	finals        []float64 // final per-node errors, honest nodes
	deepestFinals []float64 // of which: members of the deepest layer
	victimFinals  []float64 // of which: designated colluding victims

	filter nps.FilterStats // security-filter decisions, attack phase only

	err error
}

// runOutcome aggregates one RunSpec over its repetitions.
type runOutcome struct {
	ticks     []int
	meanErr   []float64
	ratio     []float64
	targetErr []float64

	cleanRef  float64
	finalMean float64
	randomRef float64

	finals        []float64
	deepestFinals []float64
	victimFinals  []float64

	filter nps.FilterStats
}

// RunScenario executes a registered scenario at the given scale on the
// pool and reduces the outcomes to figure series.
//
// Execution plan (plan.go): the scenario's series expand to their distinct
// RunSpecs (identical specs dedupe, so a clean reference shared by several
// series simulates once); every (run, repetition) pair is an independent
// unit with seeds derived from the scale's root seed; units whose runs
// differ only in what happens from the injection barrier on form a group
// that builds and converges one system, and each member continues from a
// copy of it. Units execute across the pool, each running its system
// through the sharded tick loop. Results are bit-identical for any worker
// count and any execution order: a copy continues exactly as the original
// would have, units write disjoint slots and are reduced in declaration
// order, and everything inside a unit is deterministic by the engine's
// sharding contract. Nothing outlives the call.
func RunScenario(spec ScenarioSpec, sc Scale, pool *Pool) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p, err := newPlan(spec, sc)
	if err != nil {
		return nil, err
	}
	if pool == nil {
		pool = NewPool(0)
	}
	if spec.Custom != nil {
		res := spec.Custom(sc, pool)
		// Custom runners produce the data; identity and axis labels come
		// from the spec, like every declarative scenario.
		res.ID = spec.Name
		res.Title = spec.Title
		if res.XLabel == "" {
			res.XLabel = spec.XLabel
		}
		if res.YLabel == "" {
			res.YLabel = spec.YLabel
		}
		return res, nil
	}

	units := make([]unitResult, len(p.runs)*p.reps)
	// Divide the pool between the unit lane and each unit's tick loop:
	// one unit gets the full width for its shards, many units split it.
	tickPool := pool.Split(len(units))
	peers := p.peerSets(sc, pool)
	q := newUnitQueue(p)
	converge := func(u int) (CoordSystem, error) {
		k := p.runs[u/p.reps]
		return convergeUnit(k.kind, cleanPhase(k.run), sc, u%p.reps, tickPool)
	}
	pool.RunUnits(len(units), func(int) {
		u, from, err := q.next(converge)
		if k := p.runs[u/p.reps]; err != nil {
			units[u] = unitResult{err: err}
		} else {
			units[u] = runUnit(k.kind, k.run, sc, u%p.reps, tickPool, peers[k.run.ResolveNodes(sc)], from)
		}
	})
	return p.reduce(spec, sc, units)
}

// peerSets builds the evaluation peer table of every population size the
// plan simulates — a pure function of (size, scale) and immutable, so one
// table per size serves every unit of the scenario. Rows draw from
// independent streams, so the pool fills them shard by shard.
func (p *plan) peerSets(sc Scale, pool *Pool) map[int][][]int {
	peers := map[int][][]int{}
	for _, k := range p.runs {
		if n := k.run.ResolveNodes(sc); peers[n] == nil {
			rows, seed := make([][]int, n), randx.DeriveSeed(sc.Seed, "eval-peers", n)
			pool.ForEach(n, func(_, lo, hi int) { metrics.PeerSetsShard(rows, sc.EvalPeers, seed, lo, hi) })
			peers[n] = rows
		}
	}
	return peers
}

// reduce folds the plan's unit results (unit u = run·reps + rep) into the
// scenario's figure series, in declaration order.
func (p *plan) reduce(spec ScenarioSpec, sc Scale, units []unitResult) (*Result, error) {
	for _, u := range units {
		if u.err != nil {
			return nil, fmt.Errorf("engine: scenario %s: %w", spec.Name, u.err)
		}
	}
	outs := make([]runOutcome, len(p.runs))
	for ri := range outs {
		outs[ri] = aggregate(units[ri*p.reps : (ri+1)*p.reps])
	}

	// Reduce to figure series.
	res := &Result{ID: spec.Name, Title: spec.Title, XLabel: spec.XLabel, YLabel: spec.YLabel}
	for _, s := range spec.Series {
		kind := spec.EffectiveSystem(s)
		switch spec.Output {
		case OutRatioVsTime, OutMeanVsTime, OutTargetVsTime:
			o := &outs[p.index[runKey{kind, s.Runs[0]}]]
			ser := Series{Label: s.Label}
			for k, tick := range o.ticks {
				switch spec.Output {
				case OutRatioVsTime:
					ser.Add(float64(tick), o.ratio[k])
				case OutMeanVsTime:
					ser.Add(float64(tick), o.meanErr[k])
				case OutTargetVsTime:
					ser.Add(float64(tick), o.targetErr[k])
				}
			}
			res.Series = append(res.Series, ser)
			noteRun(res, kind, s.Label, o)

		case OutFinalCDF:
			o := &outs[p.index[runKey{kind, s.Runs[0]}]]
			vals := o.finals
			switch s.Select {
			case SelectDeepestLayer:
				vals = o.deepestFinals
			case SelectVictims:
				vals = o.victimFinals
			}
			res.Series = append(res.Series, cdfSeries(s.Label, vals))
			noteRun(res, kind, s.Label, o)

		case OutFinalVsX, OutRatioVsX, OutFilterRatioVsX:
			ser := Series{Label: s.Label}
			for _, r := range s.Runs {
				o := &outs[p.index[runKey{kind, r}]]
				switch spec.Output {
				case OutFinalVsX:
					ser.Add(r.XValue(sc), o.finalMean)
				case OutRatioVsX:
					ser.Add(r.XValue(sc), o.ratio[len(o.ratio)-1])
				case OutFilterRatioVsX:
					ser.Add(r.XValue(sc), o.filter.Ratio())
				}
			}
			res.Series = append(res.Series, ser)
			// One note per sweep point: the reference values behind each
			// plotted y (clean error, random baseline, filter counts) are
			// part of the reproducible record.
			for _, r := range s.Runs {
				noteRun(res, kind, fmt.Sprintf("%s x=%g", s.Label, r.XValue(sc)), &outs[p.index[runKey{kind, r}]])
			}
		}
	}
	return res, nil
}

// noteRun records a series' reference values: clean converged error,
// final error, random baseline, and (for filtering systems) the filter's
// decisions.
func noteRun(res *Result, kind SystemKind, label string, o *runOutcome) {
	clean := "n/a" // genesis runs have no converged clean reference
	if !math.IsNaN(o.cleanRef) {
		clean = fmt.Sprintf("%.3f", o.cleanRef)
	}
	note := fmt.Sprintf("%s: clean=%s final=%.3f random=%.1f", label, clean, o.finalMean, o.randomRef)
	if kind == SystemNPS {
		note += fmt.Sprintf(" filtered(mal/total)=%d/%d", o.filter.Malicious, o.filter.Total)
	}
	res.Notes = append(res.Notes, note)
}

// cdfSeries renders a value sample as a 60-point CDF curve.
func cdfSeries(label string, values []float64) Series {
	s := Series{Label: label}
	for _, pt := range metrics.NewCDF(values).Points(60) {
		s.Add(pt[0], pt[1])
	}
	return s
}

// aggregate folds one run's repetitions together: series are averaged
// point-wise, final-error populations concatenate, filter counters sum.
func aggregate(us []unitResult) runOutcome {
	n := len(us)
	o := runOutcome{
		ticks:     us[0].ticks,
		meanErr:   make([]float64, len(us[0].meanErr)),
		ratio:     make([]float64, len(us[0].ratio)),
		targetErr: make([]float64, len(us[0].targetErr)),
		randomRef: us[0].randomRef,
	}
	for _, u := range us {
		for k := range u.meanErr {
			o.meanErr[k] += u.meanErr[k] / float64(n)
			o.ratio[k] += u.ratio[k] / float64(n)
			o.targetErr[k] += u.targetErr[k] / float64(n)
		}
		o.cleanRef += u.cleanRef / float64(n)
		o.finalMean += u.finalMean / float64(n)
		o.finals = append(o.finals, u.finals...)
		o.deepestFinals = append(o.deepestFinals, u.deepestFinals...)
		o.victimFinals = append(o.victimFinals, u.victimFinals...)
		o.filter.Total += u.filter.Total
		o.filter.Malicious += u.filter.Malicious
	}
	return o
}

// buildSystem constructs the unit's coordinate system per the run spec,
// sharding population construction across sh where the system supports
// it. The plan has checked (kind, backend, r) against the capability rule.
func buildSystem(kind SystemKind, r RunSpec, sc Scale, m latency.Substrate, seed int64, sh Sharder) (CoordSystem, error) {
	switch kind {
	case SystemVivaldi:
		var space coordspace.Space
		if r.Dims > 0 {
			if r.Height {
				space = coordspace.EuclideanHeight(r.Dims)
			} else {
				space = coordspace.Euclidean(r.Dims)
			}
		}
		cfg := vivaldi.Config{Space: space, Harden: r.Harden}
		if ResolveBackend(r, sc) == BackendLive {
			return NewLiveNet(m, cfg, seed, sh, LiveNetConfig{
				Loss:         r.Faults.Loss,
				Duplicate:    r.Faults.Duplicate,
				Reorder:      r.Faults.Reorder,
				ReorderDelay: r.Faults.ReorderDelay(),
			}), nil
		}
		return NewVivaldiSharded(m, cfg, seed, sh), nil
	case SystemNPS:
		cfg := nps.Config{
			Security:         r.Security,
			ProbeThresholdMS: npsProbeThresholdMS,
			Layers:           r.Layers,
			SolveIterations:  sc.NPSSolveIterations,
		}
		if r.Dims > 0 {
			cfg.Space = coordspace.Euclidean(r.Dims)
		}
		return NewNPSSharded(m, cfg, seed, sh), nil
	}
	return nil, fmt.Errorf("engine: unknown system %q", kind)
}

// buildUnit resolves a unit's substrate and constructs its system. All
// randomness derives from the scale's root seed, the run's population and
// the repetition index.
func buildUnit(kind SystemKind, r RunSpec, sc Scale, rep int, tp *Pool) (CoordSystem, error) {
	nodes := r.ResolveNodes(sc)
	backend, _ := ResolveSubstrate(r, sc)
	var m latency.Substrate
	switch {
	case nodes == sc.Nodes:
		m = BaseSubstrate(sc, backend, tp)
	case nodes < sc.Nodes:
		// System-size sweeps draw small subgroups; those stay dense
		// regardless of the backend (the subgroup of a substrate is a
		// gather, which only the dense form supports cheaply — see
		// ResolveSubstrate).
		m = SubgroupMatrix(sc, nodes)
	default:
		// Larger-than-paper population: generate a fresh Internet at the
		// requested size (cached under its own size key).
		bigger := sc
		bigger.Nodes = nodes
		m = BaseSubstrate(bigger, backend, tp)
	}
	return buildSystem(kind, r, sc, m, unitSeed(kind, sc, rep), tp)
}

// unitSeed is the seed every stream of one repetition derives from.
func unitSeed(kind SystemKind, sc Scale, rep int) int64 {
	return randx.DeriveSeed(sc.Seed, string(kind)+"-rep", rep)
}

// convergeUnit builds a unit's system and runs its clean phase, up to the
// injection barrier — the part of a forkable run its whole group shares.
func convergeUnit(kind SystemKind, r RunSpec, sc Scale, rep int, tp *Pool) (CoordSystem, error) {
	cs, err := buildUnit(kind, r, sc, rep, tp)
	if err != nil {
		return nil, err
	}
	for t := convergeLen(kind, sc); t > 0; t-- {
		cs.Step(tp)
	}
	return cs, nil
}

// runUnit executes one repetition of one RunSpec: build, converge, inject,
// keep running, measure. A unit of a group starts at the injection barrier
// instead, on from — its group's converged system or a copy of it. peers
// is the evaluation peer table of the run's population size.
func runUnit(kind SystemKind, r RunSpec, sc Scale, rep int, tp *Pool, peers [][]int, from CoordSystem) unitResult {
	// Pacing: Vivaldi ticks vs NPS positioning rounds.
	converge, attack, every := convergeLen(kind, sc), sc.VivaldiAttackTicks, sc.MeasureEvery
	if kind == SystemNPS {
		attack, every = sc.NPSAttackRounds, 1
	}
	injectAt := converge
	start := converge
	if r.Genesis {
		injectAt = 0
	}
	if r.Genesis || r.MeasureFromStart {
		start = 0
	}
	total := converge + attack

	cs, cur := from, converge
	if cs == nil {
		var err error
		if cs, err = buildUnit(kind, r, sc, rep, tp); err != nil {
			return unitResult{err: err}
		}
		cur = 0
	}
	nodes, m, repSeed := r.ResolveNodes(sc), cs.Substrate(), unitSeed(kind, sc, rep)
	var npsSys *nps.System // nil unless NPS
	if kind == SystemNPS {
		npsSys = npsDeployment(cs)
	}

	exclude := func(i int) bool {
		if !cs.EligibleAttacker(i) {
			return true
		}
		return r.ExcludeTarget && i == r.Attack.Target
	}
	malicious := core.SelectMalicious(cs.Size(), r.Frac, exclude, repSeed)
	malSet := core.MemberSet(malicious)

	// Campaign resolution draws any scheduled attackers up front, excluding
	// the main malicious set (and vice versa below): the two draws never
	// overlap, and both populations leave the honest set before the first
	// sample.
	camp := newCampaign(cs, r, repSeed, func(i int) bool {
		return malSet[i] || exclude(i)
	})

	u := unitResult{cleanRef: math.NaN()}
	// One measurement buffer per unit, reused for every sample: the
	// steady-state measure loop allocates nothing.
	errs := make([]float64, cs.Size())
	var inj *Injection
	injected := false
	// The honest set excludes the drawn attackers from the first sample
	// on, even before their taps install: a series that samples across
	// the injection point (extB) must average the same population
	// throughout, or the comparison carries a measured-population
	// discontinuity at the injection tick. Scheduled phase attackers are
	// excluded the same way for the whole run, even outside their phase.
	honest := func(i int) bool {
		return cs.Evaluable(i) && !malSet[i] && !camp.ScheduledAttacker(i)
	}

	advanceTo := func(p int) error {
		if !injected && p >= injectAt {
			for cur < injectAt {
				cs.Step(tp)
				cur++
			}
			if !r.Genesis {
				// The clean reference: converged accuracy at injection
				// time, before any tap is installed.
				u.cleanRef = metrics.Mean(cs.Measure(peers, cs.Evaluable, tp, errs))
			}
			var err error
			if inj, err = cs.Inject(r.Attack, malicious, repSeed); err != nil {
				return err
			}
			if npsSys != nil {
				npsSys.ResetStats() // count filter decisions during the attack only
			}
			injected = true
		}
		for cur < p {
			cs.Step(tp)
			cur++
		}
		return nil
	}

	if rep == 0 {
		u.randomRef = metrics.RandomBaseline(m, cs.Space(), peers, randomScale, randx.DeriveSeed(sc.Seed, "random-ref", nodes))
	}

	churnSeed := randx.DeriveSeed(repSeed, "churn", 0)
	sampleIdx := 0
	for p := start; p <= total; p += every {
		if err := advanceTo(p); err != nil {
			return unitResult{err: err}
		}
		if camp != nil && injected && p >= injectAt {
			// Campaign phases fire at measurement barriers, serially on
			// this unit's goroutine (like Inject): period 0 is the
			// injection barrier, period q is q·MeasureEvery ticks later.
			if err := camp.dispatch((p - injectAt) / every); err != nil {
				return unitResult{err: err}
			}
		}
		if r.ChurnFrac > 0 && injected && p > injectAt {
			applyChurn(cs, r.ChurnFrac, churnSeed, sampleIdx, tp, malSet)
		}
		cs.Measure(peers, honest, tp, errs)
		if sc.Observer != nil {
			sc.Observer.OnBarrier(cs, r, rep, p)
		}
		mean := metrics.Mean(errs)
		u.ticks = append(u.ticks, p)
		u.meanErr = append(u.meanErr, mean)
		u.ratio = append(u.ratio, metrics.Ratio(mean, u.cleanRef))
		if r.TrackTarget {
			te := errs[r.Attack.Target]
			if math.IsNaN(te) {
				te = singleNodeError(cs, peers, r.Attack.Target)
			}
			u.targetErr = append(u.targetErr, te)
		} else {
			u.targetErr = append(u.targetErr, math.NaN())
		}
		sampleIdx++
	}

	// Final per-node populations, from the last sample's measurement.
	u.finalMean = metrics.Mean(errs)
	deepest := -1
	if npsSys != nil {
		deepest = npsSys.Config().Layers - 1
	}
	for i, e := range errs {
		if math.IsNaN(e) {
			continue
		}
		u.finals = append(u.finals, e)
		if npsSys != nil && npsSys.Layer(i) == deepest {
			u.deepestFinals = append(u.deepestFinals, e)
		}
		if inj != nil && inj.Victims[i] {
			u.victimFinals = append(u.victimFinals, e)
		}
	}
	if npsSys != nil && injected {
		u.filter = npsSys.Stats()
	}
	return u
}

// applyChurn replaces a Bernoulli(frac) draw of the honest population with
// fresh joins, sharded with per-shard RNG streams: shard s of sample k
// always uses the same stream, so churn is bit-identical for any worker
// count. Churn is Vivaldi-only by the capability rule.
func applyChurn(cs CoordSystem, frac float64, seed int64, sampleIdx int, sh Sharder, malSet map[int]bool) {
	ch := cs.(springSystem)
	n := cs.Size()
	nShards := sh.NumShards(n)
	sh.ForEach(n, func(shard, lo, hi int) {
		rng := randx.NewDerived(seed, "churn-shard", sampleIdx*nShards+shard)
		for i := lo; i < hi; i++ {
			if !malSet[i] && randx.Bernoulli(rng, frac) {
				ch.ResetNode(i)
			}
		}
	})
}

// singleNodeError recomputes one node's error directly off the flat store
// (the tracked target may be outside the measured population in rare
// configurations).
func singleNodeError(cs CoordSystem, peers [][]int, node int) float64 {
	m := cs.Substrate()
	st := cs.Store()
	sum, cnt := 0.0, 0
	for _, j := range peers[node] {
		actual := m.RTT(node, j)
		if actual <= 0 {
			continue
		}
		sum += metrics.RelativeError(actual, st.Dist(node, j))
		cnt++
	}
	if cnt == 0 {
		return math.NaN()
	}
	return sum / float64(cnt)
}
