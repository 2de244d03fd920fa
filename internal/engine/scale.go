package engine

import (
	"fmt"
	"sync"

	"repro/internal/latency"
	"repro/internal/randx"
)

// Scale sizes a scenario run. The paper's full-scale settings are
// expensive (1740 nodes, 10 repetitions, 5000 ticks); Quick keeps every
// scenario's *shape* while fitting in seconds, and Bench is the minimal
// scale the test suite and benchmarks use.
type Scale struct {
	Name string

	Nodes int   // population size (paper: 1740)
	Reps  int   // repetitions with fresh attacker selection (paper: 10)
	Seed  int64 // root seed; everything derives from it

	// Vivaldi pacing (in ticks; 1 tick ≈ 17 s of virtual time).
	VivaldiConvergeTicks int // clean run before injection (paper: 1800)
	VivaldiAttackTicks   int // run after injection (paper: ~3200, to tick 5000)
	MeasureEvery         int // ticks between series samples

	// NPS pacing (in positioning rounds).
	NPSConvergeRounds int
	NPSAttackRounds   int

	// Measurement.
	EvalPeers int // evaluation peers per node (0 = all pairs)

	// NPS solver cap (see nps.Config.SolveIterations).
	NPSSolveIterations int

	// Substrate overrides the latency backend for every run that does
	// not pin one itself (RunSpec.Substrate wins — a 25k-node spec knows
	// it needs the model backend regardless of the preset). Empty means
	// dense. The vna-sim -substrate flag sets this.
	Substrate latency.BackendKind

	// Backend overrides the execution backend for every run that does
	// not pin one itself (RunSpec.Backend wins). Empty means memory.
	// The vna-sim -backend flag sets this — `-scenario fig09 -backend
	// live` replays the paper's colluding-isolation figure over live
	// virtual-UDP daemons.
	Backend ExecBackend

	// Observer, when set, is notified at every measurement barrier (see
	// BarrierObserver). The serving layer hangs its snapshot publication
	// off this hook.
	Observer BarrierObserver
}

// Validate rejects a scale no scenario can run at. MeasureEvery is the one
// that bites: it is 0 in a hand-built Scale, and a sampling loop that
// advances by 0 ticks never ends.
func (s Scale) Validate() error {
	switch {
	case s.MeasureEvery < 1:
		return fmt.Errorf("engine: scale %q: MeasureEvery %d must be at least 1", s.Name, s.MeasureEvery)
	case s.Nodes < 2:
		return fmt.Errorf("engine: scale %q: Nodes %d must be at least 2", s.Name, s.Nodes)
	case s.Reps < 0:
		return fmt.Errorf("engine: scale %q: Reps %d must not be negative", s.Name, s.Reps)
	case s.VivaldiConvergeTicks < 0 || s.VivaldiAttackTicks < 0 || s.NPSConvergeRounds < 0 || s.NPSAttackRounds < 0:
		return fmt.Errorf("engine: scale %q: tick and round counts must not be negative", s.Name)
	}
	return nil
}

// BarrierObserver receives a callback at every measurement barrier of
// every run unit, immediately after the accuracy sweep. The callback runs
// serially on the unit's goroutine — the system is quiescent, so the
// observer may read cs.Store() freely — but distinct units (reps, sweep
// points) run concurrently, so an observer shared across a scenario must
// be internally synchronized and should usually filter on rep. Observers
// must treat the system as read-only: mutating it would break the engine's
// fixed-seed determinism contract.
type BarrierObserver interface {
	OnBarrier(cs CoordSystem, r RunSpec, rep, tick int)
}

// Bench is the minimal scale used by the repository's benchmarks and fast
// tests: one repetition at small size, preserving every scenario's
// structure (sweeps, attack mechanics, measurement) but not its
// statistical smoothness.
var Bench = Scale{
	Name:                 "bench",
	Nodes:                90,
	Reps:                 1,
	Seed:                 9,
	VivaldiConvergeTicks: 500,
	VivaldiAttackTicks:   500,
	MeasureEvery:         100,
	NPSConvergeRounds:    3,
	NPSAttackRounds:      3,
	EvalPeers:            24,
	NPSSolveIterations:   300,
}

// Quick is the scaled-down preset used by default.
var Quick = Scale{
	Name:                 "quick",
	Nodes:                220,
	Reps:                 2,
	Seed:                 42,
	VivaldiConvergeTicks: 700,
	VivaldiAttackTicks:   900,
	MeasureEvery:         100,
	NPSConvergeRounds:    4,
	NPSAttackRounds:      6,
	EvalPeers:            32,
	NPSSolveIterations:   400,
}

// Standard trades a few minutes per figure for smoother curves.
var Standard = Scale{
	Name:                 "standard",
	Nodes:                700,
	Reps:                 3,
	Seed:                 42,
	VivaldiConvergeTicks: 1500,
	VivaldiAttackTicks:   2000,
	MeasureEvery:         125,
	NPSConvergeRounds:    6,
	NPSAttackRounds:      10,
	EvalPeers:            48,
	NPSSolveIterations:   600,
}

// Full is the paper's scale. Expect hours for the complete figure set.
var Full = Scale{
	Name:                 "full",
	Nodes:                1740,
	Reps:                 10,
	Seed:                 42,
	VivaldiConvergeTicks: 1800,
	VivaldiAttackTicks:   3200,
	MeasureEvery:         200,
	NPSConvergeRounds:    8,
	NPSAttackRounds:      14,
	EvalPeers:            64,
	NPSSolveIterations:   800,
}

// ScaleByName resolves "bench", "quick", "standard" or "full"; empty means
// quick.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "", "quick":
		return Quick, nil
	case "bench":
		return Bench, nil
	case "standard":
		return Standard, nil
	case "full":
		return Full, nil
	}
	return Scale{}, fmt.Errorf("engine: unknown scale %q (want bench, quick, standard or full)", name)
}

// substrateCache shares the synthetic Internet across scenarios of a run:
// the paper uses the *same* King dataset everywhere, with only the
// attacker draw varying between repetitions. Every backend of one
// (nodes, seed) pair derives from the same cached O(n) model, so dense,
// packed and model runs see the same Internet (packed within float32
// rounding). Concurrent units of a parallel scenario run share the cache
// through the mutex.
var (
	substrateMu    sync.Mutex
	substrateCache = map[string]latency.Substrate{}
)

// baseModel returns the cached O(n) King-like model of a scale — the
// common ancestor of every backend.
func baseModel(s Scale) *latency.Model {
	key := fmt.Sprintf("%d/%d/model", s.Nodes, s.Seed)
	if mo, ok := substrateCache[key]; ok {
		return mo.(*latency.Model)
	}
	mo := latency.NewKingLikeModel(latency.DefaultKingLike(s.Nodes), randx.DeriveSeed(s.Seed, "matrix", s.Nodes))
	substrateCache[key] = mo
	return mo
}

// BaseSubstrate returns the scale's full-population latency substrate on
// the requested backend, materialising dense/packed forms across sh
// (nil = serial; pair evaluation is order-independent, so the result is
// bit-identical for any worker count).
func BaseSubstrate(s Scale, kind latency.BackendKind, sh latency.Sharder) latency.Substrate {
	substrateMu.Lock()
	defer substrateMu.Unlock()
	mo := baseModel(s)
	switch kind {
	case latency.BackendModel:
		return mo
	case latency.BackendPacked:
		key := fmt.Sprintf("%d/%d/packed", s.Nodes, s.Seed)
		if p, ok := substrateCache[key]; ok {
			return p
		}
		p := mo.MaterializePacked(sh)
		substrateCache[key] = p
		return p
	default:
		key := fmt.Sprintf("%d/%d", s.Nodes, s.Seed)
		if m, ok := substrateCache[key]; ok {
			return m
		}
		m := mo.Materialize(sh)
		substrateCache[key] = m
		return m
	}
}

// ResolveSubstrate reports the backend and population a run will
// actually use at a scale — the single statement of the resolution
// policy (shared by runUnit and the vna-sim run banner): RunSpec pins
// win over the scale's override, empty means dense, and runs smaller
// than the scale's population gather a dense subgroup of the dense base
// at the full population (so that base is what resides).
func ResolveSubstrate(r RunSpec, sc Scale) (kind latency.BackendKind, nodes int) {
	nodes = r.ResolveNodes(sc)
	if nodes < sc.Nodes {
		return latency.BackendDense, sc.Nodes
	}
	kind = r.Substrate
	if kind == "" {
		kind = sc.Substrate
	}
	if kind == "" {
		kind = latency.BackendDense
	}
	return kind, nodes
}

// ResolveBackend reports the execution backend a run will actually use at
// a scale: the RunSpec pin wins over the scale's override, empty means
// memory.
func ResolveBackend(r RunSpec, sc Scale) ExecBackend {
	if r.Backend != "" {
		return r.Backend
	}
	if sc.Backend != "" {
		return sc.Backend
	}
	return BackendMemory
}

// BaseMatrix returns the scale's full-population dense latency matrix.
func BaseMatrix(s Scale) *latency.Matrix {
	return BaseSubstrate(s, latency.BackendDense, nil).(*latency.Matrix)
}

// SubgroupMatrix returns a deterministic k-node subgroup of the scale's
// matrix (the paper's system-size sweeps, §5.2). Subgroups are small by
// construction and always dense.
func SubgroupMatrix(s Scale, k int) *latency.Matrix {
	if k >= s.Nodes {
		return BaseMatrix(s)
	}
	base := BaseMatrix(s)
	key := fmt.Sprintf("%d/%d/sub%d", s.Nodes, s.Seed, k)
	substrateMu.Lock()
	defer substrateMu.Unlock()
	if m, ok := substrateCache[key]; ok {
		return m.(*latency.Matrix)
	}
	sub, _ := latency.RandomSubgroup(base, k, randx.DeriveSeed(s.Seed, "subgroup", k))
	substrateCache[key] = sub
	return sub
}
