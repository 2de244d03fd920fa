package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/coordspace"
	"repro/internal/engine"
	"repro/internal/gnp"
	"repro/internal/latency"
	"repro/internal/optimize"
	"repro/internal/randx"
	"repro/internal/serve"
	"repro/internal/simnet"
	"repro/internal/vivaldi"
	"repro/internal/wire"
)

// kernelSeed fixes the micro-kernels' inputs: exact counts such as
// optimize.iters_per_solve must not depend on the run's -seed.
const kernelSeed = 20060912

// layerRun is the state of one traced run.
type layerRun struct {
	cfg  config
	sz   sizes
	tr   *tracer
	rec  *runRecord
	pool *engine.Pool
}

// set records a per-layer metric under its declared unit.
func (lr *layerRun) set(name string, v float64) {
	for _, d := range perLayer {
		if d.Name == name {
			lr.rec.set(name, d.Unit, v)
			return
		}
	}
	panic("bench: undeclared per-layer metric " + name)
}

// calls scales a micro-kernel's call count to the run's size.
func (lr *layerRun) calls(n int) int { return max(8, n/lr.sz.kernelDiv) }

// perCall times n calls of fn as one span and returns seconds per call.
func (lr *layerRun) perCall(layer, name string, n int, fn func(i int)) float64 {
	id := lr.tr.begin("kernels", layer, name)
	for i := 0; i < n; i++ {
		fn(i)
	}
	lr.tr.end(id)
	lr.tr.count("kernels", layer, name+"_calls", float64(n))
	return lr.tr.seconds(id) / float64(n)
}

// runTrace is the traced run: every per-layer metric, measured from
// outside by timing calls into each layer's public functions. It is the
// same suite whichever workload the run names, because the driver's
// contract wants every per-layer metric from every traced run.
func runTrace(cfg config, sz sizes, rec *runRecord) error {
	lr := &layerRun{cfg: cfg, sz: sz, tr: newTracer(), rec: rec, pool: engine.NewPool(cfg.workers)}
	// The small-heap workloads go first: once kernels materialises the 200 MB
	// substrate the collector runs a hundredth as often, and figs_vivaldi's
	// 21 M allocations per pass cost 12% less than in a process of its own.
	for _, part := range []func() error{
		lr.figsVivaldi, lr.nps, lr.live, lr.kernels, lr.vivaldi5k, lr.serve,
	} {
		if err := part(); err != nil {
			return err
		}
		runtime.GC()
	}
	rec.Sizes["spans"] = float64(len(lr.tr.spans))
	return lr.tr.writeJSONL(cfg.traceOut)
}

// hostFit is the micro-kernels' positioning problem: a host placed among
// 20 anchors in 8-D, RTTs equal to the true distances.
type hostFit struct {
	space   coordspace.Space
	anchors []float64 // 20 rows of 8
	rtts    []float64
}

func newHostFit(rng *rand.Rand) hostFit {
	const k, dims = 20, 8
	f := hostFit{space: coordspace.Euclidean(dims), anchors: make([]float64, k*dims), rtts: make([]float64, k)}
	for i := range f.anchors {
		f.anchors[i] = rng.Float64()*200 - 100
	}
	host := make([]float64, dims)
	for i := range host {
		host[i] = rng.Float64()*200 - 100
	}
	for a := 0; a < k; a++ {
		d := 0.0
		for j := 0; j < dims; j++ {
			diff := f.anchors[a*dims+j] - host[j]
			d += diff * diff
		}
		f.rtts[a] = math.Sqrt(d)
	}
	return f
}

// Eval is the absolute-error objective NPS positions hosts with.
func (f hostFit) Eval(x []float64) float64 {
	dims := f.space.Dims
	total := 0.0
	for a, r := range f.rtts {
		d := 0.0
		for j := 0; j < dims; j++ {
			diff := f.anchors[a*dims+j] - x[j]
			d += diff * diff
		}
		e := math.Sqrt(d) - r
		total += e * e
	}
	return total
}

func (lr *layerRun) kernels() error {
	rng := rand.New(rand.NewSource(kernelSeed))
	bigUnit, err := simWorkloadFor("vivaldi_5k", lr.sz)
	if err != nil {
		return err
	}
	n5k := bigUnit.served.nodes()

	// latency: model build at the serve population, the cold dense
	// materialisation vivaldi_5k's set-up pays, and the two RTT kernels.
	var builds []float64
	var model *latency.Model
	for i := 0; i < 5; i++ {
		id := lr.tr.time("kernels", "latency", "model_build", func() {
			model = latency.NewKingLikeModel(latency.DefaultKingLike(lr.sz.serveNodes), kernelSeed)
		})
		builds = append(builds, lr.tr.seconds(id))
	}
	lr.set("latency.model_build_ms", median(builds)*1e3)

	var dense latency.Substrate
	id := lr.tr.time("kernels", "latency", "materialize_5k", func() {
		dense, err = bigUnit.served.substrate(lr.pool)
	})
	if err != nil {
		return err
	}
	lr.set("latency.materialize_5k_s", lr.tr.seconds(id))

	const batch = 64
	pairs := func(n int) (srcs, dsts []int) {
		srcs, dsts = make([]int, batch), make([]int, batch)
		for i := range srcs {
			srcs[i], dsts[i] = rng.Intn(n), rng.Intn(n)
		}
		return srcs, dsts
	}
	out := make([]float64, batch)
	srcs, dsts := pairs(n5k)
	lr.set("latency.rtt_pairs_dense_ns", lr.perCall("latency", "rtt_pairs_dense", lr.calls(200000), func(i int) {
		srcs[i%batch] = (srcs[i%batch] + 97) % n5k // walk the matrix instead of re-reading 64 cached cells
		dense.RTTPairs(srcs, dsts, out)
	})*1e9/batch)
	srcs, dsts = pairs(model.Size())
	lr.set("latency.rtt_from_model_ns", lr.perCall("latency", "rtt_from_model", lr.calls(100000), func(int) {
		model.RTTPairs(srcs, dsts, out)
	})*1e9/batch)

	// coordspace: the measure pass's distance sweep and the publish copy.
	st := coordspace.NewStore(coordspace.Euclidean(2), n5k)
	for i := 0; i < n5k; i++ {
		st.RandomAt(i, rng, 100)
	}
	peers := make([]int, lr.sz.big.EvalPeers)
	for i := range peers {
		peers[i] = rng.Intn(n5k)
	}
	dist := make([]float64, len(peers))
	lr.set("coordspace.dist_many_ns", lr.perCall("coordspace", "dist_many", lr.calls(1000000), func(i int) {
		st.DistMany(i%n5k, peers, dist)
	})*1e9/float64(len(peers)))
	src := coordspace.NewStore(coordspace.Euclidean(2), lr.sz.serveNodes)
	dst := coordspace.NewStore(coordspace.Euclidean(2), lr.sz.serveNodes)
	lr.set("coordspace.copy_50k_us", lr.perCall("coordspace", "copy_50k", lr.calls(2000), func(int) {
		dst.CopyFrom(src)
	})*1e6)

	var sink *rand.Rand
	lr.set("randx.new_derived_ns", lr.perCall("randx", "new_derived", lr.calls(100000), func(i int) {
		sink = randx.NewDerived(kernelSeed, "bench", i)
	})*1e9)
	_ = sink

	lr.set("engine.foreach_5k_us", lr.perCall("engine", "foreach_5k", lr.calls(100000), func(int) {
		lr.pool.ForEach(n5k, func(_, _, _ int) {})
	})*1e6)

	// wire: one 2-D response, encoded and decoded.
	resp := wire.ProbeResponse{Seq: 7, EchoNano: 12345, Error: 0.3, Vec: []float64{12.5, -40.25}}
	var pkt []byte
	lr.set("wire.append_response_ns", lr.perCall("wire", "append_response", lr.calls(2000000), func(i int) {
		resp.Seq = uint32(i)
		pkt = wire.AppendResponse(pkt[:0], resp)
	})*1e9)
	var msg wire.Msg
	vec := make([]float64, 0, wire.MaxDims)
	var decodeErr error
	lr.set("wire.decode_into_ns", lr.perCall("wire", "decode_into", lr.calls(2000000), func(int) {
		if err := wire.DecodeInto(pkt, &msg, vec); err != nil {
			decodeErr = err
		}
	})*1e9)
	if decodeErr != nil {
		return fmt.Errorf("wire.DecodeInto on an encoded response: %w", decodeErr)
	}

	// simnet: bare timers, then packets between two ports 1 ms apart.
	events := lr.calls(400000)
	sim := simnet.New()
	fired := 0
	fire := func() { fired++ }
	lr.set("simnet.timer_event_ns", lr.perCall("simnet", "timer_event", 1, func(int) {
		for i := 0; i < events; i++ {
			sim.After(time.Duration(i%1000)*time.Microsecond, fire)
		}
		sim.Run()
	})*1e9/float64(events))
	lr.tr.count("kernels", "simnet", "timer_events", float64(fired))
	sim = simnet.New()
	net := simnet.NewNetwork(sim, simnet.NetConfig{Latency: func(int, int) time.Duration { return time.Millisecond }})
	delivered := 0
	a := net.Open(0, func([]byte, int) {})
	net.Open(1, func([]byte, int) { delivered++ })
	lr.set("simnet.packet_ns", lr.perCall("simnet", "packet", 1, func(int) {
		for i := 0; i < events; i++ {
			a.Send(1, pkt)
			if i%64 == 63 {
				sim.Run()
			}
		}
		sim.Run()
	})*1e9/float64(events))
	lr.rec.check(fired == events && delivered == events, "simnet delivered %d timers and %d packets of %d", fired, delivered, events)

	// optimize / gnp: the 20-anchor 8-D host fit, through the reusable
	// solver and through the host-positioning kernel above it.
	fit := newHostFit(rng)
	x0 := make([]float64, fit.space.Dims)
	var sv optimize.Solver
	iters := 0
	solves := lr.calls(4000)
	lr.set("optimize.minimize_us", lr.perCall("optimize", "minimize", solves, func(int) {
		iters += sv.Minimize(fit, x0, optimize.Options{MaxIter: lr.sz.figs.NPSSolveIterations, InitStep: 25}).Iters
	})*1e6)
	lr.set("optimize.iters_per_solve", float64(iters)/float64(solves))
	var hs gnp.HostSolver
	posRng := rand.New(rand.NewSource(kernelSeed))
	lr.set("gnp.position_us", lr.perCall("gnp", "position", solves, func(int) {
		hs.Position(fit.space, fit.anchors, fit.rtts, false, coordspace.Coord{V: x0}, posRng, lr.sz.figs.NPSSolveIterations)
	})*1e6)

	npsUnit, err := simWorkloadFor("figs_nps", lr.sz)
	if err != nil {
		return err
	}
	m, err := npsUnit.served.substrate(lr.pool)
	if err != nil {
		return err
	}
	dims := 8 // nps.Config's default embedding
	if d := npsUnit.served.run.Dims; d > 0 {
		dims = d
	}
	id = lr.tr.time("kernels", "gnp", "solve_landmarks", func() {
		gnp.SolveLandmarks(m, gnp.SelectLandmarks(m, 20), coordspace.Euclidean(dims), kernelSeed)
	})
	lr.set("gnp.solve_landmarks_s", lr.tr.seconds(id))
	return nil
}

// figsVivaldi spans each of the six figures (simulate, then render) at W
// workers and again at one worker — the unit-lane speed-up, and the check
// that the CSVs do not depend on the worker count — then drives a plain
// and a hardened 220-node unit for the per-step numbers.
func (lr *layerRun) figsVivaldi() error {
	const wl = "figs_vivaldi"
	w, err := simWorkloadFor(wl, lr.sz)
	if err != nil {
		return err
	}
	pass := func(workers int, record bool) (float64, [][32]byte, error) {
		total, csvTotal := 0.0, 0.0
		var hashes [][32]byte
		for _, s := range w.scenarios {
			runtime.GC()
			before := mallocs()
			var res *engine.Result
			var csv []byte
			var err error
			sim := lr.tr.time(wl, "experiment", fmt.Sprintf("%s_w%d", s.id, workers), func() { res, err = s.simulate(workers) })
			if err != nil {
				return 0, nil, err
			}
			render := lr.tr.time(wl, "report", "csv", func() { csv, err = renderCSV(res) })
			if err != nil {
				return 0, nil, err
			}
			allocs := float64(mallocs() - before)
			hashes = append(hashes, sha256.Sum256(csv))
			total += lr.tr.seconds(sim) + lr.tr.seconds(render)
			csvTotal += lr.tr.seconds(render)
			if record {
				lr.set("experiment."+s.id+"_s", lr.tr.seconds(sim)+lr.tr.seconds(render))
				lr.set("experiment."+s.id+"_allocs", allocs)
			}
		}
		if record {
			lr.set("report.csv_us", csvTotal*1e6)
		}
		return total, hashes, nil
	}
	// This is the first work of the process: one untimed figure pays the
	// first-use costs, as the golden replays do in the untraced run, so the
	// six spans sum to a warm iteration's wall_s.
	if _, err := w.scenarios[0].simulate(lr.cfg.workers); err != nil {
		return err
	}
	wallW, ref, err := pass(lr.cfg.workers, true)
	if err != nil {
		return err
	}
	wall1, got, err := pass(1, false)
	if err != nil {
		return err
	}
	lr.rec.check(diffHashes(ref, got) == 0, "%s: %d CSVs differ between workers=1 and workers=%d", wl, diffHashes(ref, got), lr.cfg.workers)
	lr.set("engine.speedup_units", wall1/wallW)

	// The figures' units tick on the pool the engine hands a unit when the
	// unit lane is full: Split(many).
	tick := lr.pool.Split(64)
	plain := unitSpec{engine.SystemVivaldi, engine.RunSpec{Frac: 0.30, Attack: engine.AttackSpec{Kind: engine.AttackDisorder}}, lr.sz.figs}
	if _, err := driveUnit(lr.tr, wl, "", plain, tick); err != nil {
		return err
	}
	hardened, err := unitOf("hardenedGridFrog", -1, lr.sz.figs) // the "full stack" series
	if err != nil {
		return err
	}
	if _, err := driveUnit(lr.tr, wl, "_hardened", hardened, tick); err != nil {
		return err
	}
	tr := lr.tr
	lr.set("vivaldi.build_220_ms", median(tr.durations(wl, "vivaldi", "build"))*1e3)
	lr.set("vivaldi.step_220_us", median(tr.durations(wl, "vivaldi", "step_clean"))*1e6)
	lr.set("vivaldi.step_hardened_220_us", median(tr.durations(wl, "vivaldi", "step_clean_hardened"))*1e6)
	clean := tr.total(wl, "vivaldi", "step_clean_mallocs") / tr.total(wl, "vivaldi", "step_clean_calls")
	attacked := tr.total(wl, "vivaldi", "step_attacked_mallocs") / tr.total(wl, "vivaldi", "step_attacked_calls")
	lr.set("vivaldi.step_allocs", clean)
	lr.set("vivaldi.step_attacked_allocs", attacked)
	// Every node probes once per step, so the taps' share is the extra
	// allocations of an attacked step over a clean one, per node.
	lr.set("core.tap_allocs_per_probe", math.Max(0, attacked-clean)/float64(plain.nodes()))
	lr.set("core.select_inject_ms", median(tr.durations(wl, "core", "select_inject"))*1e3)
	return nil
}

// vivaldi5k alternates the scenario with the benchmark's own unit driver,
// traced and untraced. The driver's series must equal the scenario's bit
// for bit and its child spans must cover the unit span, so the per-call
// numbers provably describe the work engine.RunScenario does. The untraced
// drive separates what the engine adds above its unit from what the spans
// cost; both are differences of medians of a ~1 s run, so either can read
// a few milliseconds below zero.
func (lr *layerRun) vivaldi5k() error {
	const wl = "vivaldi_5k"
	w, err := simWorkloadFor(wl, lr.sz)
	if err != nil {
		return err
	}
	s := w.scenarios[0]
	var scen, plain, traced, self []float64
	var ref [32]byte
	for i := 0; i < 3; i++ {
		runtime.GC()
		t0 := time.Now()
		res, err := s.simulate(lr.cfg.workers)
		scen = append(scen, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		csv, err := renderCSV(res)
		if err != nil {
			return err
		}
		ref = sha256.Sum256(csv)

		runtime.GC()
		t0 = time.Now()
		if _, err := driveUnit(nil, wl, "", w.served, lr.pool); err != nil {
			return err
		}
		plain = append(plain, time.Since(t0).Seconds())

		runtime.GC()
		first := len(lr.tr.spans) + 1 // driveUnit's unit span
		series, err := driveUnit(lr.tr, wl, "", w.served, lr.pool)
		if err != nil {
			return err
		}
		same := len(series) == len(res.Series[0].Y)
		for k := 0; same && k < len(series); k++ {
			same = math.Float64bits(series[k]) == math.Float64bits(res.Series[0].Y[k])
		}
		lr.rec.check(same, "%s: the traced unit's mean-error series differs from engine.RunScenario's", wl)
		unit, children := lr.tr.seconds(first), lr.tr.childSeconds(first)
		// A -smoke unit lasts milliseconds, about what the span bookkeeping
		// between its children does on a busy host: nothing to hold to 5%.
		if !lr.sz.smoke {
			lr.rec.check(math.Abs(unit-children) <= 0.05*unit, "%s: child spans sum to %.4fs of a %.4fs unit span", wl, children, unit)
		}
		traced = append(traced, unit)
		self = append(self, unit-children)
	}
	t0 := time.Now()
	csv, err := s.run(1)
	wall1 := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	lr.rec.check(sha256.Sum256(csv) == ref, "%s: CSV differs between workers=1 and workers=%d", wl, lr.cfg.workers)

	tr := lr.tr
	lr.set("engine.speedup_shards", wall1/median(scen))
	lr.set("engine.unit_5k_s", median(traced))
	lr.set("engine.unit_5k_self_s", median(self))
	lr.set("engine.scenario_self_s", median(scen)-median(plain))
	lr.set("bench.trace_overhead_frac", (median(traced)-median(plain))/median(plain))
	lr.set("metrics.peer_sets_ms", median(tr.durations(wl, "metrics", "peer_sets"))*1e3)
	lr.set("metrics.measure_5k_ms", median(tr.durations(wl, "metrics", "measure"))*1e3)
	lr.set("vivaldi.build_5k_ms", median(tr.durations(wl, "vivaldi", "build"))*1e3)
	lr.set("vivaldi.step_5k_ms", median(tr.durations(wl, "vivaldi", "step_clean"))*1e3)
	lr.set("vivaldi.step_5k_attacked_ms", median(tr.durations(wl, "vivaldi", "step_attacked"))*1e3)
	return nil
}

// spanScenario regenerates a workload's one figure inside a span at W
// workers and again at one worker: the two CSVs must be the same bytes.
func (lr *layerRun) spanScenario(wl string, s scenario) error {
	var atW, at1 []byte
	var err error
	lr.tr.time(wl, "experiment", s.id, func() { atW, err = s.run(lr.cfg.workers) })
	if err != nil {
		return err
	}
	lr.tr.time(wl, "experiment", s.id+"_w1", func() { at1, err = s.run(1) })
	if err != nil {
		return err
	}
	lr.rec.check(bytes.Equal(atW, at1), "%s: CSV differs between workers=1 and workers=%d", wl, lr.cfg.workers)
	return nil
}

// nps spans fig21 and drives its most attacked unit.
func (lr *layerRun) nps() error {
	const wl = "figs_nps"
	w, err := simWorkloadFor(wl, lr.sz)
	if err != nil {
		return err
	}
	s := w.scenarios[0]
	if err := lr.spanScenario(wl, s); err != nil {
		return err
	}
	last := s.spec.Series[len(s.spec.Series)-1]
	u := unitSpec{s.spec.EffectiveSystem(last), last.Runs[0], lr.sz.figs}
	if _, err := driveUnit(lr.tr, wl, "", u, lr.pool.Split(64)); err != nil {
		return err
	}
	tr := lr.tr
	rounds := append(tr.durations(wl, "nps", "step_clean"), tr.durations(wl, "nps", "step_attacked")...)
	lr.set("nps.build_220_s", median(tr.durations(wl, "nps", "build")))
	lr.set("nps.round_220_ms", median(rounds)*1e3)
	lr.set("nps.round_allocs", (tr.total(wl, "nps", "step_clean_mallocs")+tr.total(wl, "nps", "step_attacked_mallocs"))/float64(len(rounds)))
	return nil
}

// live spans live1740 and drives its attacked unit over a shortened run.
func (lr *layerRun) live() error {
	const wl = "live_1740"
	w, err := simWorkloadFor(wl, lr.sz)
	if err != nil {
		return err
	}
	s := w.scenarios[0]
	if err := lr.spanScenario(wl, s); err != nil {
		return err
	}
	series := s.spec.Series[len(s.spec.Series)-1]
	u := unitSpec{engine.SystemVivaldi, series.Runs[0], lr.sz.big}
	u.sc.VivaldiConvergeTicks, u.sc.VivaldiAttackTicks, u.sc.MeasureEvery = 100, 100, 50
	if _, err := driveUnit(lr.tr, wl, "", u, lr.pool.Split(len(s.spec.Series))); err != nil {
		return err
	}
	tr := lr.tr
	lr.set("daemon.build_1740_ms", median(tr.durations(wl, "daemon", "build"))*1e3)
	lr.set("daemon.tick_1740_ms", median(tr.durations(wl, "daemon", "step_clean"))*1e3)
	lr.set("daemon.tick_attacked_1740_ms", median(tr.durations(wl, "daemon", "step_attacked"))*1e3)
	lr.set("daemon.tick_allocs", tr.total(wl, "daemon", "step_clean_mallocs")/tr.total(wl, "daemon", "step_clean_calls"))
	return nil
}

// timedKNN answers n stream queries on snap, each timed on its own, and
// returns the ascending latencies in nanoseconds. k overrides the
// stream's k when positive; linear answers by the oracle scan.
func timedKNN(snap *serve.Snapshot, stream []query, n, k int, linear bool) []float64 {
	var sc serve.Scratch
	out := make([]serve.Neighbor, 0, maxK)
	ns := make([]float64, n)
	for i := range ns {
		q := stream[i%len(stream)]
		kk := int(q.k)
		if k > 0 {
			kk = k
		}
		t0 := time.Now()
		if linear {
			out = snap.NearestKLinear(int(q.a), kk, &sc, out)
		} else {
			out = snap.NearestK(int(q.a), kk, &sc, out)
		}
		ns[i] = float64(time.Since(t0))
	}
	sort.Float64s(ns)
	return ns
}

// serve measures the serving layer on the serve workloads' converged
// population: publish, k-NN by k and in the tail, the exiled and
// height-augmented cases at linear cost, and the oracle itself.
func (lr *layerRun) serve() error {
	const wl = "serve_read"
	converged := func(vc vivaldi.Config) (*coordspace.Store, error) {
		cs, err := servePopulation(lr.sz, vc, lr.pool)
		if err != nil {
			return nil, err
		}
		return buildRing(cs, lr.pool, lr.sz.serveTicks)[0], nil
	}
	var st *coordspace.Store
	var err error
	lr.tr.time(wl, "vivaldi", "converge_50k", func() { st, err = converged(vivaldi.Config{}) })
	if err != nil {
		return err
	}
	stream := genStream(lr.cfg.seed, lr.sz.streamLen, st.Len())
	eng := serve.NewEngine()
	publishes := lr.calls(50)
	var pubAllocs uint64
	for i := 0; i < publishes; i++ {
		// A publication lands on a collected heap, as it does at 20 Hz in
		// the windows; back to back, each one faults in fresh pages instead
		// of reusing the last epoch's.
		runtime.GC()
		before := mallocs()
		lr.tr.time(wl, "serve", "publish", func() { eng.Publish(st, i) })
		pubAllocs += mallocs() - before
	}
	lr.set("serve.publish_allocs", float64(pubAllocs)/float64(publishes))
	lr.set("serve.publish_50k_ms", median(lr.tr.durations(wl, "serve", "publish"))*1e3)

	snap := eng.Current()
	n := lr.calls(400000)
	lr.set("serve.knn_k1_us", percentile(timedKNN(snap, stream, n/4, 1, false), 0.50)/1e3)
	lr.set("serve.knn_k16_us", percentile(timedKNN(snap, stream, n/4, maxK, false), 0.50)/1e3)
	before := mallocs()
	mixed := timedKNN(snap, stream, n, 0, false)
	lr.set("serve.knn_allocs", float64(mallocs()-before)/float64(n))
	lr.set("serve.knn_p999_us", percentile(mixed, 0.999)/1e3)
	lr.set("serve.knn_linear_us", percentile(timedKNN(snap, stream, lr.calls(1000), 0, true), 0.50)/1e3)

	exiled := coordspace.NewStore(st.Space(), st.Len())
	exiled.CopyFrom(st)
	exile([]*coordspace.Store{exiled}, lr.cfg.seed)
	lr.set("serve.knn_exiled_us", percentile(timedKNN(serve.NewEngine().Publish(exiled, 0), stream, lr.calls(2000), 0, false), 0.50)/1e3)

	var tall *coordspace.Store
	lr.tr.time(wl, "vivaldi", "converge_50k_height", func() {
		tall, err = converged(vivaldi.Config{Space: coordspace.EuclideanHeight(2)})
	})
	if err != nil {
		return err
	}
	lr.set("serve.knn_height_us", percentile(timedKNN(serve.NewEngine().Publish(tall, 0), stream, lr.calls(2000), 0, false), 0.50)/1e3)

	sink := 0.0
	lr.set("serve.rtt_ns", lr.perCall("serve", "estimate_rtt", lr.calls(20000000), func(i int) {
		q := stream[i&(len(stream)-1)]
		sink += snap.EstimateRTT(int(q.a), int(q.b))
	})*1e9)
	lr.tr.count(wl, "serve", "rtt_sink", sink)
	return nil
}
