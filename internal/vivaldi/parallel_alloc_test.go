package vivaldi

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/latency"
)

func newTestRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// shardedInline mirrors engine.Serial without importing the engine: the
// same fixed 32-wide shard decomposition, executed inline in shard order.
type shardedInline struct{}

// ShardedInline lets the external test package (tap_contract_test.go)
// tick over the same decomposition.
type ShardedInline = shardedInline

const testShardSize = 32

func (shardedInline) ForEach(n int, fn func(shard, lo, hi int)) {
	for s, lo := 0, 0; lo < n; s, lo = s+1, lo+testShardSize {
		hi := lo + testShardSize
		if hi > n {
			hi = n
		}
		fn(s, lo, hi)
	}
}

// TestStepParallelSteadyStateAllocs is the allocation regression test for
// the hot tick: once the scratch buffers are warm, a steady-state tick (no
// taps, no sample guard) must not touch the heap at all. The frozen
// snapshot is a flat memcpy, honest responses are zero-copy views, and the
// update rule displaces coordinates in place. (A multi-worker pool adds
// only goroutine bookkeeping on top; the algorithmic path is this one.)
func TestStepParallelSteadyStateAllocs(t *testing.T) {
	m := latency.GenerateKingLike(latency.DefaultKingLike(200), 5)
	sys := NewSystem(m, Config{}, 11)
	sh := shardedInline{}
	for i := 0; i < 10; i++ {
		sys.StepParallel(sh) // warm the scratch buffers
	}
	allocs := testing.AllocsPerRun(20, func() { sys.StepParallel(sh) })
	if allocs != 0 {
		t.Fatalf("steady-state StepParallel tick allocates %.1f times, want 0", allocs)
	}
}

// TestStepParallelHardenedAllocs extends the steady-state guard to the
// full hardening stack: filter, adjustment, gravity and decay all work
// over preallocated (node, spring)-owned rings, so once warm the hardened
// tick must stay within a small constant allocation budget (the ceiling
// matches the Makefile's bench-guard TICK_ALLOC_CEILING).
func TestStepParallelHardenedAllocs(t *testing.T) {
	m := latency.GenerateKingLike(latency.DefaultKingLike(200), 5)
	sys := NewSystem(m, Config{Harden: Hardening{
		LatencyWindow:      5,
		AdjustmentWindow:   10,
		GravityRho:         500,
		NeighborDecayTicks: 200,
	}}, 11)
	sh := shardedInline{}
	for i := 0; i < 10; i++ {
		sys.StepParallel(sh)
	}
	allocs := testing.AllocsPerRun(20, func() { sys.StepParallel(sh) })
	if allocs > 64 {
		t.Fatalf("steady-state hardened StepParallel tick allocates %.1f times, want <= 64", allocs)
	}
}

// TestNodeUpdateAllocs: the standalone per-host state machine shares the
// same flat kernel and must be allocation-free per sample too (it runs
// inside the live UDP daemon's receive path).
func TestNodeUpdateAllocs(t *testing.T) {
	cfg := Config{}
	node := NewNode(cfg, newTestRNG(1))
	remote := node.cfg.Space.Random(newTestRNG(2), 100)
	resp := ProbeResponse{Coord: remote, Error: 0.4, RTT: 80}
	node.Update(resp) // warm
	allocs := testing.AllocsPerRun(100, func() { node.Update(resp) })
	if allocs != 0 {
		t.Fatalf("Node.Update allocates %.1f times, want 0", allocs)
	}
}

// TestPartitionBlocksProbes drives both step paths across an active cut:
// under a total partition no probe completes, so no coordinate moves on
// either the serial or the parallel tick; healing resumes convergence.
func TestPartitionBlocksProbes(t *testing.T) {
	m := latency.GenerateKingLike(latency.DefaultKingLike(60), 4)
	s := NewSystem(m, Config{}, 5)
	sh := shardedInline{}
	for i := 0; i < 30; i++ {
		s.StepParallel(sh)
	}
	all := make([]bool, s.Size())
	for i := range all {
		all[i] = true
	}
	id := s.ApplyPartition(all, all)
	frozen := s.Coords()
	for i := 0; i < 10; i++ {
		s.StepParallel(sh)
	}
	for i := 0; i < 10; i++ {
		s.Step() // the serial tick honors the cut too
	}
	if !reflect.DeepEqual(s.Coords(), frozen) {
		t.Fatal("coordinates moved across a total partition")
	}
	s.HealPartition(id)
	s.StepParallel(sh)
	if reflect.DeepEqual(s.Coords(), frozen) {
		t.Fatal("no coordinate moved after healing the partition")
	}
}

// TestPartitionSidedness cuts {0..k-1} from the rest and checks only
// cross-cut probes are blocked: both sides keep converging internally.
func TestPartitionSidedness(t *testing.T) {
	m := latency.GenerateKingLike(latency.DefaultKingLike(60), 4)
	s := NewSystem(m, Config{}, 5)
	sh := shardedInline{}
	for i := 0; i < 5; i++ {
		s.StepParallel(sh)
	}
	n := s.Size()
	a, b := make([]bool, n), make([]bool, n)
	for i := range a {
		a[i] = i < n/3
		b[i] = !a[i]
	}
	s.ApplyPartition(a, b)
	before := s.Coords()
	for i := 0; i < 20; i++ {
		s.StepParallel(sh)
	}
	after := s.Coords()
	movedA, movedB := 0, 0
	for i := range after {
		if !reflect.DeepEqual(after[i], before[i]) {
			if a[i] {
				movedA++
			} else {
				movedB++
			}
		}
	}
	// Both sides sample intra-side neighbors, so both keep moving.
	if movedA == 0 || movedB == 0 {
		t.Fatalf("a side froze entirely: A moved %d, B moved %d", movedA, movedB)
	}
}

// TestStepParallelAllocsWithCut extends the steady-state allocation guard
// to a tick with an active partition: the severed-link check must be a
// mask lookup, not an allocation (the live-backend tick shares this
// property via simnet's identical mask sweep).
func TestStepParallelAllocsWithCut(t *testing.T) {
	m := latency.GenerateKingLike(latency.DefaultKingLike(200), 5)
	sys := NewSystem(m, Config{}, 11)
	sh := shardedInline{}
	a, b := make([]bool, sys.Size()), make([]bool, sys.Size())
	for i := range a {
		a[i] = i%2 == 0
		b[i] = !a[i]
	}
	sys.ApplyPartition(a, b)
	for i := 0; i < 10; i++ {
		sys.StepParallel(sh)
	}
	allocs := testing.AllocsPerRun(20, func() { sys.StepParallel(sh) })
	if allocs != 0 {
		t.Fatalf("tick with active cut allocates %.1f times, want 0", allocs)
	}
}

// TestStepParallelMatchesAfterStoreRefactor pins Step as the inline form
// of StepParallel: one shard on the calling goroutine and a 32-wide shard
// decomposition must land every node on exactly the same bits.
func TestStepParallelMatchesAfterStoreRefactor(t *testing.T) {
	m := latency.GenerateKingLike(latency.DefaultKingLike(80), 3)
	a := NewSystem(m, Config{}, 21)
	b := NewSystem(m, Config{}, 21)
	for tick := 0; tick < 40; tick++ {
		a.Step()
		b.StepParallel(shardedInline{})
	}
	if !reflect.DeepEqual(a.Coords(), b.Coords()) {
		t.Fatal("Step and StepParallel diverged")
	}
	for i := 0; i < a.Size(); i++ {
		if a.LocalError(i) != b.LocalError(i) {
			t.Fatalf("node %d error estimates diverged", i)
		}
	}
}
