package vivaldi

import "repro/internal/coordspace"

// Sharder is the minimal sharded-execution contract the parallel step
// needs. It is satisfied by engine.Pool (and by anything else that runs
// fn over a fixed, worker-count-independent shard decomposition of [0,n)).
// Declaring it here keeps this package free of an engine dependency.
type Sharder interface {
	ForEach(n int, fn func(shard, lo, hi int))
}

// serialSharder runs every range as one shard on the calling goroutine —
// what Step and the serial constructors shard over.
type serialSharder struct{}

func (serialSharder) ForEach(n int, fn func(shard, lo, hi int)) { fn(0, 0, n) }

// parallelScratch holds the per-tick buffers StepParallel reuses across
// ticks so a steady-state tick, attacked or clean, allocates nothing: the
// frozen snapshot is a flat store filled by one memcpy per shard, honest
// responses are zero-copy views of it, forged ones are copied into a second
// flat store, and the phase closures are built once and re-passed.
type parallelScratch struct {
	frozen     *coordspace.Store // coordinates at tick start (flat copy)
	forged     *coordspace.Store // what a tap told prober i, in slot i; nil until a tapped probe
	frozenErrs []float64         // error estimates at tick start
	srcs       []int             // identity indices, for batched lookups
	targets    []int             // probe target per node (-1 = none)
	targetIdx  []int             // drawn spring index per node (filter ring key)
	rtts       []float64         // true RTT of each node's probe
	resps      []ProbeResponse   // what each prober observed
	dirs       []float64         // n×stride unit-vector scratch for the update kernel
	view       *frozenView       // reused tick-start View

	// The sharded phase bodies, captured once. Rebuilding closures per
	// tick would heap-allocate them (they escape into the sharder).
	phase1, phase2, phase4 func(shard, lo, hi int)
}

// frozenView presents the tick-start snapshot as a read-only View. Taps
// and sample guards see a consistent world: every coordinate and error
// estimate is the value it had when the tick began, regardless of which
// shard (or goroutine) asks, which is what makes the parallel tick's
// output independent of the worker count.
type frozenView struct {
	s       *System
	scratch *parallelScratch
}

func (v *frozenView) Space() coordspace.Space      { return v.s.cfg.Space }
func (v *frozenView) Coord(i int) coordspace.Coord { return v.scratch.frozen.ViewAt(i) }
func (v *frozenView) LocalError(i int) float64     { return v.scratch.frozenErrs[i] }
func (v *frozenView) TrueRTT(i, j int) float64     { return v.s.m.RTT(i, j) }
func (v *frozenView) Tick() int                    { return v.s.tick }
func (v *frozenView) Size() int                    { return v.s.Size() }

func (s *System) scratch() *parallelScratch {
	if s.par != nil {
		return s.par
	}
	n := s.Size()
	stride := s.cfg.Space.Dims + 1
	sc := &parallelScratch{
		frozen:     coordspace.NewStore(s.cfg.Space, n),
		frozenErrs: make([]float64, n),
		srcs:       make([]int, n),
		targets:    make([]int, n),
		targetIdx:  make([]int, n),
		rtts:       make([]float64, n),
		resps:      make([]ProbeResponse, n),
		dirs:       make([]float64, n*stride),
	}
	for i := range sc.srcs {
		sc.srcs[i] = i
	}
	sc.view = &frozenView{s: s, scratch: sc}

	// Phase 1: freeze the tick-start state (flat memcpy per shard) and
	// draw each node's probe target from its own stream.
	sc.phase1 = func(_, lo, hi int) {
		sc.frozen.CopyRange(s.store, lo, hi)
		copy(sc.frozenErrs[lo:hi], s.errs[lo:hi])
		for i := lo; i < hi; i++ {
			nbrs := s.neighbors[i]
			if len(nbrs) == 0 {
				sc.targets[i] = -1
				continue
			}
			idx := s.rngs[i].Intn(len(nbrs))
			j := nbrs[idx]
			if len(s.cuts) != 0 && s.linkBlocked(i, j) {
				// Probe lost to a partition: no sample this tick, but the
				// target draw stays consumed so per-node streams keep
				// their uncut alignment. Reads s.cuts through the captured
				// receiver — mid-run cuts need no closure rebuild.
				sc.targets[i] = -1
				continue
			}
			sc.targets[i] = j
			sc.targetIdx[i] = idx
		}
	}

	// Phase 2: resolve substrate RTTs and honest responses. Honest
	// coordinates are zero-copy views into the frozen store — valid for
	// the rest of the tick, consumed read-only by phase 4.
	sc.phase2 = func(_, lo, hi int) {
		s.m.RTTPairs(sc.srcs[lo:hi], sc.targets[lo:hi], sc.rtts[lo:hi])
		for i := lo; i < hi; i++ {
			j := sc.targets[i]
			if j < 0 || s.taps[j] != nil {
				continue
			}
			sc.resps[i] = ProbeResponse{
				Coord: sc.frozen.ViewAt(j),
				Error: sc.frozenErrs[j],
				RTT:   sc.rtts[i],
			}
		}
	}

	// Phase 4: apply the hardened update pipeline in place on the live
	// store. Each node touches only its own slot, error, RNG stream, dir
	// scratch and (node, spring)-owned hardening rings, so the phase stays
	// race-free with hardening on.
	sc.phase4 = func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if sc.targets[i] < 0 || s.taps[i] != nil {
				continue // no probe, or malicious (does not move itself)
			}
			s.applySample(i, sc.targetIdx[i], sc.resps[i], sc.view, sc.dirs[i*stride:(i+1)*stride])
		}
	}

	s.par = sc
	return sc
}

// StepParallel runs one simulation tick sharded across sh — the one loop
// that advances a population (Step is its one-shard form). It uses
// synchronous (Jacobi-style) semantics: every probe observes the system as
// it stood when the tick began, and all updates land together at the end
// of the tick, which makes node updates order-free and therefore safely
// executable on any number of workers with bit-identical results.
// Malicious nodes still probe (they must appear to participate) but do not
// move their own coordinates, since they answer with forged state anyway.
//
// Determinism relies on three invariants:
//
//   - every node draws its probe target and its update randomness from its
//     own per-node RNG stream, touched only by the shard that owns it;
//   - honest responses are pure reads of the frozen snapshot, with the
//     substrate RTTs batch-fetched per shard (latency.Substrate.RTTPairs);
//   - responses that pass through an attack tap are computed in a fixed
//     serial sweep in prober order, because taps hold mutable state (their
//     own RNG streams, conspiracy caches) shared across probers.
//
// In steady state a tick, attacked or not, performs zero heap allocations:
// see parallelScratch and TestStepParallel{SteadyState,Attacked}Allocs.
func (s *System) StepParallel(sh Sharder) {
	s.tick++
	n := s.Size()
	sc := s.scratch()

	sh.ForEach(n, sc.phase1)
	sh.ForEach(n, sc.phase2)

	// Phase 3 (serial, fixed order): forged responses. Taps carry mutable
	// state shared across probers, so they are consulted exactly once per
	// probe, in ascending prober order — the same order every run. The
	// answer may alias the tap's scratch (see Tap), so it is copied at once,
	// into the prober's slot of the forged store: a node probes once per
	// tick, one tap may answer many. An answer of the wrong dimensionality
	// stays as returned, for applyRule to refuse.
	for i := 0; i < n; i++ {
		j := sc.targets[i]
		if j < 0 || s.taps[j] == nil {
			continue
		}
		honest := ProbeResponse{
			Coord: sc.frozen.ViewAt(j),
			Error: sc.frozenErrs[j],
			RTT:   sc.rtts[i],
		}
		resp := consult(s.taps[j], i, honest, sc.view)
		if len(resp.Coord.V) == s.cfg.Space.Dims {
			if sc.forged == nil {
				sc.forged = coordspace.NewStore(s.cfg.Space, n)
			}
			sc.forged.SetCoordAt(i, resp.Coord)
			resp.Coord = sc.forged.ViewAt(i)
		}
		sc.resps[i] = resp
	}

	sh.ForEach(n, sc.phase4)
}
