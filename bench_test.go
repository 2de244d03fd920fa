package vna

// The benchmark harness: one benchmark per paper figure (fig01..fig26,
// figure 17 being a diagram), the engine's parallel-scaling benches, plus
// micro-benchmarks of the hot paths and the ablation benches called out in
// DESIGN.md §5.
//
// Figure benches run the registered experiment at the minimal Bench
// preset: they measure the cost of regenerating a figure's data (and keep
// every attack path exercised under -bench). To regenerate figures at
// paper scale, use: go run repro/cmd/vna-sim -scenario all -preset full

import (
	"math"
	"testing"

	"repro/internal/coordspace"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/gnp"
	"repro/internal/latency"
	"repro/internal/metrics"
	"repro/internal/nps"
	"repro/internal/randx"
	"repro/internal/serve"
	"repro/internal/vivaldi"
)

func benchFigure(b *testing.B, id string) {
	b.Helper()
	reg, ok := experiment.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := reg.Run(experiment.Bench)
		if len(res.Series) == 0 {
			b.Fatalf("%s produced no series", id)
		}
	}
}

// One benchmark per evaluation figure.

func BenchmarkFig01(b *testing.B) { benchFigure(b, "fig01") }
func BenchmarkFig02(b *testing.B) { benchFigure(b, "fig02") }
func BenchmarkFig03(b *testing.B) { benchFigure(b, "fig03") }
func BenchmarkFig04(b *testing.B) { benchFigure(b, "fig04") }
func BenchmarkFig05(b *testing.B) { benchFigure(b, "fig05") }
func BenchmarkFig06(b *testing.B) { benchFigure(b, "fig06") }
func BenchmarkFig07(b *testing.B) { benchFigure(b, "fig07") }
func BenchmarkFig08(b *testing.B) { benchFigure(b, "fig08") }
func BenchmarkFig09(b *testing.B) { benchFigure(b, "fig09") }
func BenchmarkFig10(b *testing.B) { benchFigure(b, "fig10") }
func BenchmarkFig11(b *testing.B) { benchFigure(b, "fig11") }
func BenchmarkFig12(b *testing.B) { benchFigure(b, "fig12") }
func BenchmarkFig13(b *testing.B) { benchFigure(b, "fig13") }
func BenchmarkFig14(b *testing.B) { benchFigure(b, "fig14") }
func BenchmarkFig15(b *testing.B) { benchFigure(b, "fig15") }
func BenchmarkFig16(b *testing.B) { benchFigure(b, "fig16") }
func BenchmarkFig18(b *testing.B) { benchFigure(b, "fig18") }
func BenchmarkFig19(b *testing.B) { benchFigure(b, "fig19") }
func BenchmarkFig20(b *testing.B) { benchFigure(b, "fig20") }
func BenchmarkFig21(b *testing.B) { benchFigure(b, "fig21") }
func BenchmarkFig22(b *testing.B) { benchFigure(b, "fig22") }
func BenchmarkFig23(b *testing.B) { benchFigure(b, "fig23") }
func BenchmarkFig24(b *testing.B) { benchFigure(b, "fig24") }
func BenchmarkFig25(b *testing.B) { benchFigure(b, "fig25") }
func BenchmarkFig26(b *testing.B) { benchFigure(b, "fig26") }

// Engine parallel-scaling benches: the same registered scenario at the
// Bench preset on 1, 4 and 8 workers. The produced series are
// bit-identical across the three; only wall-clock changes. fig01 expands
// to five independent runs (one per attacker fraction), so the unit lane
// of the executor carries the speedup even when per-tick shards are too
// small to parallelize; on a single-core host all three degenerate to the
// serial path.

func benchEngineParallel(b *testing.B, workers int) {
	b.Helper()
	sp, ok := engine.Get("fig01")
	if !ok {
		b.Fatal("fig01 not registered")
	}
	pool := engine.NewPool(workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := engine.RunScenario(sp, engine.Bench, pool)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Series) == 0 {
			b.Fatal("no series produced")
		}
	}
}

func BenchmarkEngineParallel1(b *testing.B) { benchEngineParallel(b, 1) }
func BenchmarkEngineParallel4(b *testing.B) { benchEngineParallel(b, 4) }
func BenchmarkEngineParallel8(b *testing.B) { benchEngineParallel(b, 8) }

// BenchmarkEngineTickSharded measures one sharded Vivaldi tick at the
// paper's population size on 8 workers (compare BenchmarkVivaldiTick for
// the same kernel inline on one shard).
func BenchmarkEngineTickSharded(b *testing.B) {
	m := benchMatrix(1740)
	cs := engine.NewVivaldiSharded(m, vivaldi.Config{}, 1, nil)
	pool := engine.NewPool(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Step(pool)
	}
}

// Scaling benches: the 5000-node population of the scale5k spec. The
// fixed 32-wide shard decomposition yields ~157 shards here, so both the
// tick and the measurement pass scale with available cores while staying
// bit-identical at any worker count.

// BenchmarkTickSharded5k measures one sharded Vivaldi tick at 5000 nodes
// on 8 workers, steady state (zero heap allocations inline; pool mode
// adds one job record per ForEach call).
func BenchmarkTickSharded5k(b *testing.B) {
	m := benchMatrix(5000)
	cs := engine.NewVivaldiSharded(m, vivaldi.Config{}, 1, nil)
	pool := engine.NewPool(8)
	cs.Step(pool) // warm the scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Step(pool)
	}
}

// BenchmarkTickHardened1740 measures one sharded Vivaldi tick at the
// paper's population with the full hardening stack on — per-spring median
// filter, adjustment residuals, gravity pull and neighbor decay. Its
// allocs/op rides the bench-guard hardened ceiling: the filter's median
// runs over preallocated (node, spring)-owned rings, so hardening must
// add arithmetic, not heap traffic.
func BenchmarkTickHardened1740(b *testing.B) {
	m := benchMatrix(1740)
	cs := engine.NewVivaldiSharded(m, vivaldi.Config{Harden: vivaldi.Hardening{
		LatencyWindow:      5,
		AdjustmentWindow:   10,
		GravityRho:         500,
		NeighborDecayTicks: 200,
	}}, 1, nil)
	pool := engine.NewPool(8)
	cs.Step(pool) // warm the scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Step(pool)
	}
}

// BenchmarkTickAttacked1740 measures one sharded Vivaldi tick at the
// paper's population with 30 % of the nodes running the combined attack
// (disorder, repulsion, colluding isolation in equal shares) — the tick
// every figure spends most of its time in. Taps write their lies into
// scratch they own and the tick copies each into a flat per-prober buffer,
// so its allocs/op rides the same bench-guard ceiling as the clean tick.
// The warm-up lets every victim's exile destination be agreed.
func BenchmarkTickAttacked1740(b *testing.B) {
	m := benchMatrix(1740)
	cs := engine.NewVivaldiSharded(m, vivaldi.Config{}, 1, nil)
	pool := engine.NewPool(8)
	for i := 0; i < 20; i++ {
		cs.Step(pool)
	}
	mal := core.SelectMalicious(cs.Size(), 0.3, nil, 1)
	if _, err := cs.Inject(engine.AttackSpec{Kind: engine.AttackCombined}, mal, 1); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		cs.Step(pool)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Step(pool)
	}
}

// BenchmarkMeasure5k measures the sharded flat-store measurement pass at
// 5000 nodes with 64 evaluation peers each, into a reused output buffer —
// the per-sample cost of the engine's accuracy series at scale.
func BenchmarkMeasure5k(b *testing.B) {
	m := benchMatrix(5000)
	cs := engine.NewVivaldiSharded(m, vivaldi.Config{}, 1, nil)
	pool := engine.NewPool(8)
	for i := 0; i < 20; i++ {
		cs.Step(pool)
	}
	peers := metrics.PeerSets(m.Size(), 64, 1)
	out := make([]float64, cs.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Measure(peers, nil, pool, out)
	}
}

// Substrate benchmarks: the pluggable latency backends (dense, packed,
// model) that decouple population size from memory. BenchmarkSubstrate*
// report B/op for construction — the resident-memory story of the README
// table — and the RTTPairs/Measure benches the per-lookup cost each
// backend trades it for.

// BenchmarkRTTPairsPacked measures the packed backend's batched pair
// kernel on the parallel tick's access pattern: a full population's probe
// batch resolved in one sweep at 5000 nodes.
func BenchmarkRTTPairsPacked(b *testing.B) {
	const n = 5000
	p := latency.NewKingLikeModel(latency.DefaultKingLike(n), 1).MaterializePacked(nil)
	srcs := make([]int, n)
	dsts := make([]int, n)
	out := make([]float64, n)
	for i := range srcs {
		srcs[i] = i
		dsts[i] = (i*7 + 13) % n
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RTTPairs(srcs, dsts, out)
	}
}

// BenchmarkRTTPairsDense is the dense reference for the packed kernel.
func BenchmarkRTTPairsDense(b *testing.B) {
	const n = 5000
	m := benchMatrix(n)
	srcs := make([]int, n)
	dsts := make([]int, n)
	out := make([]float64, n)
	for i := range srcs {
		srcs[i] = i
		dsts[i] = (i*7 + 13) % n
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RTTPairs(srcs, dsts, out)
	}
}

// BenchmarkMeasure25kModel measures the sharded measurement pass at
// 25 000 nodes on the model substrate — every true RTT recomputed on
// demand from ~600 KB of per-node state — with 24 evaluation peers each,
// into a reused buffer.
func BenchmarkMeasure25kModel(b *testing.B) {
	const n = 25000
	mo := latency.NewKingLikeModel(latency.DefaultKingLike(n), 1)
	pool := engine.NewPool(8)
	cs := engine.NewVivaldiSharded(mo, vivaldi.Config{}, 1, pool)
	for i := 0; i < 5; i++ {
		cs.Step(pool)
	}
	peers := metrics.PeerSets(n, 24, 1)
	out := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Measure(peers, nil, pool, out)
	}
}

// BenchmarkTickSharded25kModel measures one sharded Vivaldi tick at
// 25 000 nodes on the model substrate, steady state.
func BenchmarkTickSharded25kModel(b *testing.B) {
	const n = 25000
	mo := latency.NewKingLikeModel(latency.DefaultKingLike(n), 1)
	pool := engine.NewPool(8)
	cs := engine.NewVivaldiSharded(mo, vivaldi.Config{}, 1, pool)
	cs.Step(pool) // warm the scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Step(pool)
	}
}

// Live-backend benches: one Step is a full virtual tick of wire-protocol
// probing — every node encodes, transmits, decodes and validates one
// request/response exchange over the virtual UDP fabric. The timing-wheel
// scheduler, pooled packet buffers and scratch decoding make the steady
// state allocation-free, which is what lets the live backend scale from
// the paper's 1740 hosts to the 25k model-substrate populations.

func benchLiveTick(b *testing.B, m latency.Substrate) {
	b.Helper()
	cs := engine.NewLiveNet(m, vivaldi.Config{}, 1, engine.Serial{}, engine.LiveNetConfig{})
	// An active partition cut (first 64 nodes severed from the rest) keeps
	// the campaign-era packet path honest: the per-send severed check is a
	// pair of mask lookups and must not put anything on the heap.
	n := cs.Size()
	a, rest := make([]bool, n), make([]bool, n)
	for i := range a {
		a[i] = i < 64
		rest[i] = !a[i]
	}
	cs.(interface{ ApplyPartition(a, b []bool) int }).ApplyPartition(a, rest)
	// Warm until steady state: the event slab, buffer pools, pending maps
	// and scratch buffers reach their high-water marks over the first
	// ticks. The severed nodes' pending sets grow until the probe timeout
	// (~167 ticks) reaps unanswered probes as fast as new ones enter, so
	// warmup must cross that horizon for a 1x bench-guard run to see the
	// true steady state (maps never shrink; post-timeout inserts reuse
	// deleted slots without touching the heap).
	for i := 0; i < 180; i++ {
		cs.Step(engine.Serial{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Step(engine.Serial{})
	}
}

// BenchmarkLiveTick1740 is the paper's population over live virtual UDP
// (dense substrate, matching the live1740 spec). Its allocs/op is guarded
// in CI next to the in-memory sharded tick.
func BenchmarkLiveTick1740(b *testing.B) {
	benchLiveTick(b, benchMatrix(1740))
}

// BenchmarkLiveTick5k is the live5k spec's population: the live backend on
// the O(n)-memory model substrate, one-way delays served by the boot-time
// gather cache.
func BenchmarkLiveTick5k(b *testing.B) {
	benchLiveTick(b, latency.NewKingLikeModel(latency.DefaultKingLike(5000), 1))
}

// BenchmarkNPSScale25k measures NPS system construction at 25 000 nodes on
// the model substrate — the workload behind the npsScale25k/npsAttack25k
// specs. Above gnp.LandmarkCandidateCap the landmark selection's greedy
// max-min runs on a deterministic candidate sample instead of the full
// population, which removed the O(n²) footprint pass (87% of the 22.8 s
// this bench recorded before; see BENCH_engine.json).
func BenchmarkNPSScale25k(b *testing.B) {
	const n = 25000
	mo := latency.NewKingLikeModel(latency.DefaultKingLike(n), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sys := nps.NewSystem(mo, nps.Config{}, 1); sys == nil {
			b.Fatal("nil system")
		}
	}
}

// BenchmarkNPSPosition1740 measures one steady-state NPS positioning round
// at the paper's 1740 nodes with the security filter on: the serial probe
// sweep (batched RTT rows, arena-backed coordinate copies) plus the
// sharded filter + Simplex solve phase running on per-shard scratch. Its
// allocs/op is guarded in CI (NPS_ALLOC_CEILING): a warm round's remaining
// allocations are the trickle of security eliminations (lazily created ban
// maps and reference-set rebuilds), so a per-probe or per-solve allocation
// at 1740 nodes would blow through the ceiling by orders of magnitude.
func BenchmarkNPSPosition1740(b *testing.B) {
	sys := nps.NewSystem(benchMatrix(1740), nps.Config{Security: true, ProbeThresholdMS: 5000}, 1)
	pool := engine.NewPool(8)
	sys.StepParallel(pool)
	sys.StepParallel(pool)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.StepParallel(pool)
	}
}

// Construction cost (ns/op and, with -benchmem, B/op — the memory
// footprint each backend commits to at 1740 nodes).

func BenchmarkSubstrateDense1740(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		latency.NewKingLikeModel(latency.DefaultKingLike(1740), 1).Materialize(nil)
	}
}

func BenchmarkSubstratePacked1740(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		latency.NewKingLikeModel(latency.DefaultKingLike(1740), 1).MaterializePacked(nil)
	}
}

func BenchmarkSubstrateModel25k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		latency.NewKingLikeModel(latency.DefaultKingLike(25000), 1)
	}
}

// BenchmarkGenerateKingLikeSharded5k measures dense materialisation over
// the worker pool — the dominant startup cost of the 5k+ scaling specs.
func BenchmarkGenerateKingLikeSharded5k(b *testing.B) {
	pool := engine.NewPool(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		latency.GenerateKingLikeSharded(latency.DefaultKingLike(5000), 1, pool)
	}
}

// Micro-benchmarks of the hot paths.

func benchMatrix(n int) *latency.Matrix {
	return latency.GenerateKingLike(latency.DefaultKingLike(n), 1)
}

// BenchmarkVivaldiTick measures one full simulation tick at the paper's
// population size (1740 nodes, one sample each).
func BenchmarkVivaldiTick(b *testing.B) {
	m := benchMatrix(1740)
	sys := vivaldi.NewSystem(m, vivaldi.Config{}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step()
	}
}

// BenchmarkVivaldiUpdate measures the bare update rule.
func BenchmarkVivaldiUpdate(b *testing.B) {
	cfg := vivaldi.Config{}
	node := vivaldi.NewNode(cfg, randSource(1))
	remote := vivaldi.ProbeResponse{
		Coord: Euclidean(2).Random(randSource(2), 100),
		Error: 0.4,
		RTT:   80,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		node.Update(remote)
	}
}

// BenchmarkNPSRound measures one full NPS positioning round at 400 nodes.
func BenchmarkNPSRound(b *testing.B) {
	m := benchMatrix(400)
	sys := nps.NewSystem(m, nps.Config{SolveIterations: 400}, 1)
	sys.Run(1) // everyone positioned once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step()
	}
}

// BenchmarkSimplexDownhill8D measures one NPS-style positioning solve on a
// warm host solver.
func BenchmarkSimplexDownhill8D(b *testing.B) {
	space := Euclidean(8)
	rng := randSource(3)
	anchors := make([]float64, 0, 20*space.Dims)
	rtts := make([]float64, 20)
	host := space.Random(rng, 100)
	for i := range rtts {
		a := space.Random(rng, 100)
		anchors = append(anchors, a.V...)
		rtts[i] = space.Dist(host, a) * (1 + 0.1*rng.NormFloat64())
	}
	var hs gnp.HostSolver
	start := space.Zero()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hs.Position(space, anchors, rtts, true, start, rng, 800)
	}
}

// BenchmarkGenerateInternet measures the synthetic topology generator at
// the paper's scale.
func BenchmarkGenerateInternet(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		latency.GenerateKingLike(latency.DefaultKingLike(1740), int64(i))
	}
}

// BenchmarkNodeErrors measures a full accuracy evaluation pass (1740
// nodes, 64 sampled peers each).
func BenchmarkNodeErrors(b *testing.B) {
	m := benchMatrix(1740)
	sys := vivaldi.NewSystem(m, vivaldi.Config{}, 1)
	sys.Run(50)
	peers := metrics.PeerSets(m.Size(), 64, 1)
	coords := sys.Coords()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.NodeErrors(m, sys.Space(), coords, peers, nil)
	}
}

// Ablation benches (DESIGN.md §5): each runs a small attacked system under
// one design variation and reports the final honest error as a metric, so
// `go test -bench=Ablation` quantifies the design choice's security value.

func ablationVivaldi(b *testing.B, cfg vivaldi.Config, frac float64) {
	b.Helper()
	m := benchMatrix(150)
	peers := metrics.PeerSets(m.Size(), 32, 1)
	b.ReportAllocs()
	var finalErr float64
	for i := 0; i < b.N; i++ {
		sys := vivaldi.NewSystem(m, cfg, int64(i))
		sys.Run(600)
		mal := core.SelectMalicious(m.Size(), frac, nil, int64(i))
		malSet := core.MemberSet(mal)
		for _, id := range mal {
			sys.SetTap(id, core.NewVivaldiDisorder(id, int64(i)))
		}
		sys.Run(600)
		honest := func(n int) bool { return !malSet[n] }
		finalErr = metrics.Mean(metrics.NodeErrors(m, sys.Space(), sys.Coords(), peers, honest))
	}
	b.ReportMetric(finalErr, "final-rel-err")
}

// BenchmarkAblationAdaptiveDelta: the paper's configuration (δ = Cc·w),
// which the disorder attack exploits through the reported-error weight.
func BenchmarkAblationAdaptiveDelta(b *testing.B) {
	ablationVivaldi(b, vivaldi.Config{}, 0.3)
}

// BenchmarkAblationConstantDelta: fixed δ, no error weighting.
func BenchmarkAblationConstantDelta(b *testing.B) {
	ablationVivaldi(b, vivaldi.Config{ConstantDelta: 0.05}, 0.3)
}

// BenchmarkAblationNeighbors16/64: the spring-count resilience lever
// behind the system-size figures.
func BenchmarkAblationNeighbors16(b *testing.B) {
	ablationVivaldi(b, vivaldi.Config{Neighbors: 16, CloseNeighbors: 8}, 0.3)
}

func BenchmarkAblationNeighbors64(b *testing.B) {
	ablationVivaldi(b, vivaldi.Config{Neighbors: 64, CloseNeighbors: 32}, 0.3)
}

// BenchmarkAblationDefenseOff/On: the §6 mitigations under disorder.
func BenchmarkAblationDefenseOff(b *testing.B) {
	ablationVivaldi(b, vivaldi.Config{}, 0.3)
}

func BenchmarkAblationDefenseOn(b *testing.B) {
	ablationVivaldi(b, vivaldi.Config{SampleGuard: defense.Guard(defense.Config{})}, 0.3)
}

func ablationNPS(b *testing.B, cfg nps.Config) {
	b.Helper()
	m := benchMatrix(150)
	peers := metrics.PeerSets(m.Size(), 32, 1)
	cfg.SolveIterations = 300
	b.ReportAllocs()
	var finalErr float64
	var filtered nps.FilterStats
	for i := 0; i < b.N; i++ {
		sys := nps.NewSystem(m, cfg, int64(i))
		sys.Run(3)
		sys.ResetStats()
		mal := core.SelectMalicious(m.Size(), 0.3, sys.IsLandmark, int64(i))
		malSet := core.MemberSet(mal)
		for _, id := range mal {
			sys.SetTap(id, core.NewNPSAntiDetectionNaive(id, 0.5, int64(i)))
		}
		sys.Run(3)
		honest := func(n int) bool { return !malSet[n] && !sys.IsLandmark(n) }
		finalErr = metrics.Mean(metrics.NodeErrors(m, sys.Space(), sys.Coords(), peers, honest))
		filtered = sys.Stats()
	}
	b.ReportMetric(finalErr, "final-rel-err")
	b.ReportMetric(filtered.Ratio(), "filter-precision")
}

// BenchmarkAblationFilterWorst: the paper's NPS filter (at most one
// reference discarded per positioning).
func BenchmarkAblationFilterWorst(b *testing.B) {
	ablationNPS(b, nps.Config{Security: true, ProbeThresholdMS: 5000})
}

// BenchmarkAblationFilterAll: discard every reference meeting the
// criterion — closing the "one reprieve per round" loophole.
func BenchmarkAblationFilterAll(b *testing.B) {
	ablationNPS(b, nps.Config{Security: true, ProbeThresholdMS: 5000, FilterAll: true})
}

// BenchmarkAblationThreshold1s/5s: how much the probe threshold bounds the
// naive anti-detection attack.
func BenchmarkAblationThreshold1s(b *testing.B) {
	ablationNPS(b, nps.Config{Security: true, ProbeThresholdMS: 1000})
}

func BenchmarkAblationThreshold5s(b *testing.B) {
	ablationNPS(b, nps.Config{Security: true, ProbeThresholdMS: 5000})
}

// BenchmarkAblationRelativeObjective: GNP's relative-error objective for
// NPS host positioning. It intrinsically discounts far-away lies, blunting
// delay-based attacks — at the cost of not being what the attacked
// reference implementation does (see nps.Config.RelativeObjective).
func BenchmarkAblationRelativeObjective(b *testing.B) {
	ablationNPS(b, nps.Config{Security: true, ProbeThresholdMS: 5000, RelativeObjective: true})
}

// BenchmarkAblationAbsoluteObjective: the default, for side-by-side runs.
func BenchmarkAblationAbsoluteObjective(b *testing.B) {
	ablationNPS(b, nps.Config{Security: true, ProbeThresholdMS: 5000})
}

// ---- Serving layer (internal/serve) ----

// serveSnapshot builds one published snapshot over a RandomAt-filled
// population — k-NN performance depends only on the spatial distribution,
// so no substrate or simulation is needed.
func serveSnapshot(n int) *serve.Snapshot { return serveSnapshotExiled(n, 0) }

// serveSnapshotExiled is serveSnapshot with its last `exiled` nodes moved
// to the paper's 50 000 ms repulsion radius, each at its own bearing.
func serveSnapshotExiled(n, exiled int) *serve.Snapshot {
	st := coordspace.NewStore(coordspace.EuclideanHeight(2), n)
	rng := randx.New(int64(n))
	for i := 0; i < n; i++ {
		st.RandomAt(i, rng, 250)
	}
	for i := n - exiled; i < n; i++ {
		theta := rng.Float64() * 2 * math.Pi
		st.SetCoordAt(i, coordspace.Coord{V: []float64{50_000 * math.Cos(theta), 50_000 * math.Sin(theta)}, H: st.HeightAt(i)})
	}
	return serve.NewEngine().Publish(st, 0)
}

func benchServeNearestK(b *testing.B, n, exiled int, linear bool) {
	b.Helper()
	snap := serveSnapshotExiled(n, exiled)
	var sc serve.Scratch
	out := make([]serve.Neighbor, 0, 16)
	// Warm the scratch so the measured loop is the steady query path.
	out = snap.NearestK(0, 16, &sc, out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node := i % n
		if linear {
			out = snap.NearestKLinear(node, 16, &sc, out)
		} else {
			out = snap.NearestK(node, 16, &sc, out)
		}
	}
	_ = out
}

// BenchmarkServeNearestK50k is the headline spatial-index query (k=16 at
// 50 000 nodes) and carries bench-guard's serve allocs/op ceiling;
// BenchmarkServeNearestKLinear50k is the paired O(n) oracle baseline the
// >=10x speedup criterion is measured against.
func BenchmarkServeNearestK50k(b *testing.B)       { benchServeNearestK(b, 50_000, 0, false) }
func BenchmarkServeNearestKLinear50k(b *testing.B) { benchServeNearestK(b, 50_000, 0, true) }
func BenchmarkServeNearestK5k(b *testing.B)        { benchServeNearestK(b, 5_000, 0, false) }
func BenchmarkServeNearestK1740(b *testing.B)      { benchServeNearestK(b, 1740, 0, false) }

// BenchmarkServeNearestK50kExiled is the same query under attack: 16 nodes
// at the exile radius must not pull the index back to the linear scan. It
// shares bench-guard's serve allocs/op ceiling.
func BenchmarkServeNearestK50kExiled(b *testing.B) { benchServeNearestK(b, 50_000, 16, false) }

func BenchmarkServeEstimateRTT50k(b *testing.B) {
	snap := serveSnapshot(50_000)
	n := snap.Len()
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += snap.EstimateRTT(i%n, (i*7+1)%n)
	}
	_ = sink
}

// BenchmarkServePublish50k is the publisher-side cost per measurement
// barrier: one flat store copy plus the grid counting sort.
func BenchmarkServePublish50k(b *testing.B) {
	st := coordspace.NewStore(coordspace.EuclideanHeight(2), 50_000)
	rng := randx.New(50)
	for i := 0; i < st.Len(); i++ {
		st.RandomAt(i, rng, 250)
	}
	eng := serve.NewEngine()
	eng.Publish(st, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Publish(st, i)
	}
}
