package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/latency"
	"repro/internal/report"
	"repro/internal/vivaldi"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64 // timed budget of the run
	trace    bool
	smoke    bool
	workers  int    // W = min(nproc, 4): GOMAXPROCS and every engine pool
	root     string // repository root: where the goldens are
	traceOut string // where the traced run writes its spans
	commit   string
}

func (c config) readers() int { return max(1, c.workers-1) }

// sizes is everything that differs between the real benchmark and the
// -smoke run the tests drive.
type sizes struct {
	smoke        bool         // shrunk forms of the registered specs, no golden replays
	figs         engine.Scale // preset of figs_vivaldi and figs_nps
	big          engine.Scale // preset (pacing) of vivaldi_5k and live_1740
	serveNodes   int
	serveTicks   int // convergence before the ring is taken
	setups       int // times a serve workload sets up (setup_s is their median)
	probeTicks   int // convergence of a sim workload's served unit
	publishes    int // per window of a serve workload
	probePubs    int // per window a sim workload serves
	probeWindows int
	streamLen    int
	maxIters     int
	kernelDiv    int // micro-kernel call counts are divided by this
}

func sizesFor(smoke bool) sizes {
	if !smoke {
		return sizes{
			figs: engine.Quick, big: engine.Bench,
			serveNodes: 50000, serveTicks: 200, setups: 3, probeTicks: 200,
			publishes: 40, probePubs: 500, probeWindows: 3, streamLen: 1 << 20,
			maxIters: 1 << 30, kernelDiv: 1,
		}
	}
	sc := engine.Bench
	sc.VivaldiConvergeTicks, sc.VivaldiAttackTicks, sc.MeasureEvery = 100, 100, 50
	sc.NPSConvergeRounds, sc.NPSAttackRounds, sc.NPSSolveIterations = 1, 1, 30
	return sizes{
		smoke: true, figs: sc, big: sc,
		serveNodes: 2000, serveTicks: 20, setups: 1, probeTicks: 10,
		publishes: 3, probePubs: 2, probeWindows: 1, streamLen: 1 << 12,
		maxIters: 1, kernelDiv: 200,
	}
}

// scenario is one figure of a sim workload.
type scenario struct {
	id      string
	spec    engine.ScenarioSpec
	scale   engine.Scale
	altered bool // spec differs from the registered one: run it through the engine directly
}

// simulate regenerates the figure on a pool of the given width.
func (s scenario) simulate(workers int) (*experiment.Result, error) {
	if s.altered {
		return engine.RunScenario(s.spec, s.scale, engine.NewPool(workers))
	}
	return experiment.RunWith(s.id, s.scale, workers)
}

func renderCSV(res *experiment.Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := report.WriteCSV(&buf, res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// run is what `vna-sim -scenario id -format csv` does: simulate, render.
func (s scenario) run(workers int) ([]byte, error) {
	res, err := s.simulate(workers)
	if err != nil {
		return nil, err
	}
	return renderCSV(res)
}

// nodeTicks counts the node-ticks the scenario simulates: for every
// distinct (system, run) — the engine dedupes identical ones — and every
// repetition, population times steps.
func (s scenario) nodeTicks() float64 {
	type key struct {
		kind engine.SystemKind
		run  engine.RunSpec
	}
	seen := map[key]bool{}
	total := 0.0
	for _, ser := range s.spec.Series {
		for _, r := range ser.Runs {
			k := key{s.spec.EffectiveSystem(ser), r}
			if seen[k] {
				continue
			}
			seen[k] = true
			u := unitSpec{k.kind, r, s.scale}
			converge, attack, _ := u.pacing()
			total += float64(u.nodes()) * float64(converge+attack) * float64(max(1, s.scale.Reps))
		}
	}
	return total
}

type golden struct{ dir, id string }

// simWorkload is a set of figures regenerated per iteration, plus the
// representative unit it serves for the serve metrics.
type simWorkload struct {
	scenarios []scenario
	goldens   []golden
	served    unitSpec
}

// registered returns scenario id as registered, at scale sc.
func registered(id string, sc engine.Scale) (scenario, error) {
	sp, ok := engine.Get(id)
	if !ok {
		return scenario{}, fmt.Errorf("scenario %s is not registered", id)
	}
	return scenario{id: id, spec: sp, scale: sc}, nil
}

// shrunk returns the -smoke form of a scenario: its runs take the scale's
// population instead of the one the spec pins, and embed in dims
// dimensions when dims is positive.
func shrunk(s scenario, dims int) scenario {
	series := make([]engine.SeriesSpec, len(s.spec.Series))
	for i, ser := range s.spec.Series {
		ser.Runs = append([]engine.RunSpec(nil), ser.Runs...)
		for j := range ser.Runs {
			ser.Runs[j].Nodes = 0
			ser.Runs[j].Substrate = ""
			if dims > 0 {
				ser.Runs[j].Dims = dims
			}
		}
		series[i] = ser
	}
	s.spec.Series = series
	s.altered = true
	return s
}

func simWorkloadFor(name string, sz sizes) (simWorkload, error) {
	var w simWorkload
	add := func(sc engine.Scale, ids ...string) error {
		for _, id := range ids {
			s, err := registered(id, sc)
			if err != nil {
				return err
			}
			w.scenarios = append(w.scenarios, s)
		}
		return nil
	}
	switch name {
	case "figs_vivaldi":
		if err := add(sz.figs, figsVivaldiIDs...); err != nil {
			return w, err
		}
		w.goldens = []golden{{"bench", "fig01"}, {"bench", "fig03"}, {"bench", "fig09"}, {"bench", "extC"}}
		w.served = unitSpec{engine.SystemVivaldi, engine.RunSpec{}, sz.figs}
	case "vivaldi_5k":
		if err := add(sz.big, "scale5k"); err != nil {
			return w, err
		}
		s := &w.scenarios[0]
		s.spec.Series = s.spec.Series[1:2] // the "30% disorder" series: one unit
		s.altered = true
		if sz.smoke {
			*s = shrunk(*s, 0)
		}
		w.served = unitSpec{engine.SystemVivaldi, s.spec.Series[0].Runs[0], sz.big}
	case "figs_nps":
		if err := add(sz.figs, "fig21"); err != nil {
			return w, err
		}
		if sz.smoke {
			// Solving 20 landmarks in 8-D is most of a small NPS unit:
			// -smoke keeps two series and embeds them in 2-D.
			s := &w.scenarios[0]
			s.spec.Series = s.spec.Series[:2]
			*s = shrunk(*s, 2)
		}
		w.goldens = []golden{{"bench", "fig21"}}
		w.served = unitSpec{engine.SystemNPS, w.scenarios[0].spec.Series[0].Runs[0], sz.figs}
	case "live_1740":
		if err := add(sz.big, "live1740"); err != nil {
			return w, err
		}
		if sz.smoke {
			w.scenarios[0] = shrunk(w.scenarios[0], 0)
		}
		w.goldens = []golden{{"live", "fig09"}}
		w.served = unitSpec{engine.SystemVivaldi, w.scenarios[0].spec.Series[0].Runs[0], sz.big}
	default:
		return w, fmt.Errorf("%s is not a sim workload", name)
	}
	return w, nil
}

// iteration regenerates every figure once and returns each CSV's hash.
func (w simWorkload) iteration(workers int) ([][32]byte, error) {
	hashes := make([][32]byte, len(w.scenarios))
	for i, s := range w.scenarios {
		csv, err := s.run(workers)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.id, err)
		}
		hashes[i] = sha256.Sum256(csv)
	}
	return hashes, nil
}

// diffHashes counts the figures whose CSV hash differs from the
// reference's.
func diffHashes(ref, got [][32]byte) int {
	n := 0
	for i := range ref {
		if i >= len(got) || ref[i] != got[i] {
			n++
		}
	}
	return n
}

// checkGolden replays scenario id at the bench preset and byte-compares
// its CSV with the repository's own golden (dir "live" replays it on the
// live backend).
func checkGolden(root string, g golden, workers int) (bool, error) {
	p := engine.Bench
	if g.dir == "live" {
		p.Backend = engine.BackendLive
	}
	want, err := os.ReadFile(filepath.Join(root, "internal", "experiment", "testdata", "golden", g.dir, g.id+".csv"))
	if err != nil {
		return false, err
	}
	s, err := registered(g.id, p)
	if err != nil {
		return false, err
	}
	got, err := s.run(workers)
	if err != nil {
		return false, err
	}
	return bytes.Equal(got, want), nil
}

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// checkIteration counts one timed iteration: every figure's CSV must hash
// to what the first run produced.
func (r *runRecord) checkIteration(i int, ref, got [][32]byte) {
	d := diffHashes(ref, got)
	r.check(d == 0, "iteration %d: %d CSV hashes differ from the first run's", i, d)
}

// runSim measures one sim workload: the golden checks, then the set-up (the
// process's first, cold run of the workload, whose CSV hashes become the
// reference — what one `vna-sim -scenario` invocation costs a user), timed
// iterations for cfg.seconds, then one served window of the workload's
// representative unit. A process is cold once, so unlike the serve
// workloads' set-up this one is a single sample.
func runSim(cfg config, sz sizes, rec *runRecord) error {
	w, err := simWorkloadFor(cfg.workload, sz)
	if err != nil {
		return err
	}
	// The goldens run at the bench preset, whose populations (and so whose
	// cached substrates) are not the workload's: set-up below stays cold.
	t0 := time.Now()
	if !sz.smoke {
		for _, g := range w.goldens {
			for _, workers := range []int{1, cfg.workers} {
				ok, err := checkGolden(cfg.root, g, workers)
				if err != nil {
					return err
				}
				rec.check(ok, "golden/%s/%s.csv differs at workers=%d", g.dir, g.id, workers)
			}
		}
	}
	rec.Sizes["golden_checks_s"] = time.Since(t0).Seconds()

	t0 = time.Now()
	ref, err := w.iteration(cfg.workers)
	if err != nil {
		return err
	}
	rec.set("setup_s", "s", time.Since(t0).Seconds())
	rec.set("setup_mb", "MB", liveHeapMB())

	var walls, allocs, allocMB []float64
	start := time.Now()
	for i := 0; i < sz.maxIters && (i == 0 || time.Since(start).Seconds() < cfg.seconds); i++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		got, err := w.iteration(cfg.workers)
		wall := time.Since(t).Seconds()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		rec.checkIteration(i, ref, got)
		walls = append(walls, wall)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	}
	ticks := 0.0
	for _, s := range w.scenarios {
		ticks += s.nodeTicks()
	}
	rec.setMedian("wall_s", "s", walls)
	rec.setMin("allocs_per_run", "count", allocs)
	rec.setMin("alloc_mb_per_run", "MB", allocMB)
	rec.set("node_ticks_per_s", "1/s", ticks/median(walls))
	rec.Sizes["iterations"] = float64(len(walls))
	rec.Sizes["scenarios"] = float64(len(w.scenarios))
	rec.Sizes["node_ticks"] = ticks

	// Serve the workload's own kind of population. The publisher runs at
	// 1 kHz, not the serve workloads' 20 Hz: a 220-node publication is 10 us
	// of allocator, and its median over 150 publications on a heap gone cold
	// between them spread 10-15% from run to run; over 1500 it spreads 1-5%.
	pool := engine.NewPool(cfg.workers)
	m, err := w.served.substrate(pool)
	if err != nil {
		return err
	}
	cs, err := w.served.build(m, pool)
	if err != nil {
		return err
	}
	ticksToServe := sz.probeTicks
	if w.served.kind == engine.SystemNPS {
		ticksToServe = w.served.sc.NPSConvergeRounds
	}
	ring := buildRing(cs, pool, ticksToServe)
	sb := newServeBench(ring, genStream(cfg.seed, sz.streamLen, cs.Size()), cfg.readers(), probePeriod)
	rec.Sizes["served_nodes"] = float64(cs.Size())
	wins := make([]windowResult, sz.probeWindows)
	for i := range wins {
		wins[i] = sb.window(sz.probePubs)
	}
	recordWindows(rec, wins)
	return nil
}

// recordWindows reduces served windows to the serve metrics: medians over
// windows, and over every publication for publish_ms.
func recordWindows(rec *runRecord, wins []windowResult) {
	var qps, p50, p99, rtt, pub []float64
	for _, w := range wins {
		qps = append(qps, float64(w.queries)/w.wallS)
		p50 = append(p50, w.knnP50US)
		p99 = append(p99, w.knnP99US)
		rtt = append(rtt, w.rttNS)
		pub = append(pub, w.publishMS...)
		rec.Attempted += w.checked
		rec.Failed += w.failed
		if w.failed > 0 {
			rec.Failures = append(rec.Failures, fmt.Sprintf("%d served answers differ from the linear oracle / the store", w.failed))
		}
	}
	rec.setMedian("qps", "1/s", qps)
	rec.setMedian("knn_p50_us", "us", p50)
	rec.setMedian("knn_p99_us", "us", p99)
	rec.setMedian("rtt_ns", "ns", rtt)
	rec.setMedian("publish_ms", "ms", pub)
	rec.Sizes["windows"] = float64(len(wins))
}

// servePopulation builds the serve workloads' population: Vivaldi on the
// model substrate (the only backend that fits 50k nodes), converged, then
// a ring of consecutive barrier stores.
func servePopulation(sz sizes, vc vivaldi.Config, pool *engine.Pool) (engine.CoordSystem, error) {
	u := unitSpec{engine.SystemVivaldi, engine.RunSpec{Nodes: sz.serveNodes, Substrate: latency.BackendModel}, engine.Bench}
	m, err := u.substrate(pool)
	if err != nil {
		return nil, err
	}
	return engine.NewVivaldiSharded(m, vc, u.repSeed(), pool), nil
}

// runServe measures serve_read or serve_exiled: set-up builds and
// converges the population and takes the publish ring — several times, so
// setup_s is a median — then windows of a fixed publish count run for
// cfg.seconds.
func runServe(cfg config, sz sizes, rec *runRecord) error {
	pool := engine.NewPool(cfg.workers)
	var setups []float64
	var sb *serveBench
	for i := 0; i < sz.setups; i++ {
		sb = nil // the previous set-up is garbage before the next is built
		t0 := time.Now()
		cs, err := servePopulation(sz, vivaldi.Config{}, pool)
		if err != nil {
			return err
		}
		ring := buildRing(cs, pool, sz.serveTicks)
		if cfg.workload == "serve_exiled" {
			exile(ring, cfg.seed)
		}
		sb = newServeBench(ring, genStream(cfg.seed, sz.streamLen, sz.serveNodes), cfg.readers(), servePeriod)
		setups = append(setups, time.Since(t0).Seconds())
	}
	rec.setMedian("setup_s", "s", setups)
	rec.set("setup_mb", "MB", liveHeapMB())

	var wins []windowResult
	var walls, allocs, allocMB, rate []float64
	start := time.Now()
	for i := 0; i < sz.maxIters && (i == 0 || time.Since(start).Seconds() < cfg.seconds); i++ {
		w := sb.window(sz.publishes)
		wins = append(wins, w)
		walls = append(walls, w.wallS)
		allocs = append(allocs, w.mallocs)
		allocMB = append(allocMB, w.allocMB)
		rate = append(rate, float64(sz.serveNodes*sz.publishes)/w.wallS)
	}
	rec.setMedian("wall_s", "s", walls)
	rec.setMin("allocs_per_run", "count", allocs)
	rec.setMin("alloc_mb_per_run", "MB", allocMB)
	rec.setMedian("node_ticks_per_s", "1/s", rate)
	rec.Sizes["served_nodes"] = float64(sz.serveNodes)
	rec.Sizes["readers"] = float64(cfg.readers())
	rec.Sizes["publishes_per_window"] = float64(sz.publishes)
	recordWindows(rec, wins)
	return nil
}
