package engine

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestShardDecompositionPure(t *testing.T) {
	for _, n := range []int{0, 1, shardSize - 1, shardSize, shardSize + 1, 1000, 1740} {
		k := NumShards(n)
		covered := 0
		prevHi := 0
		for s := 0; s < k; s++ {
			lo, hi := ShardBounds(s, n)
			if lo != prevHi {
				t.Fatalf("n=%d shard %d: lo=%d, want %d", n, s, lo, prevHi)
			}
			if hi <= lo {
				t.Fatalf("n=%d shard %d: empty range [%d,%d)", n, s, lo, hi)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != n {
			t.Fatalf("n=%d: shards cover %d indices", n, covered)
		}
	}
}

func TestPoolForEachCoversOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		coverOnce(t, NewPool(workers), 500)
	}
}

func TestPoolShardIndicesMatchBounds(t *testing.T) {
	p := NewPool(4)
	const n = 333
	var mu sync.Mutex
	got := map[int][2]int{}
	p.ForEach(n, func(shard, lo, hi int) {
		mu.Lock()
		got[shard] = [2]int{lo, hi}
		mu.Unlock()
	})
	if len(got) != NumShards(n) {
		t.Fatalf("visited %d shards, want %d", len(got), NumShards(n))
	}
	for s, b := range got {
		lo, hi := ShardBounds(s, n)
		if b != [2]int{lo, hi} {
			t.Fatalf("shard %d bounds %v, want [%d,%d)", s, b, lo, hi)
		}
	}
}

func TestNewPoolDefaults(t *testing.T) {
	if NewPool(0).Workers() < 1 {
		t.Fatal("zero-width pool")
	}
	if NewPool(-3).Workers() < 1 {
		t.Fatal("negative-width pool")
	}
}

func TestPoolSplit(t *testing.T) {
	p := NewPool(8)
	// RunUnits caps the unit lane at min(workers, nUnits); Split's
	// per-unit width times that lane must never oversubscribe the pool.
	if inner := p.Split(3); 3*inner.Workers() > p.Workers() {
		t.Fatalf("split(3) oversubscribes: 3 units × %d workers > %d", inner.Workers(), p.Workers())
	}
	if inner := p.Split(20); inner.Workers() != 1 {
		t.Fatalf("split(20) per-unit workers %d, want 1", inner.Workers())
	}
	if inner := p.Split(1); inner.Workers() != 8 {
		t.Fatalf("split(1) per-unit workers %d, want 8", inner.Workers())
	}
}

// coverOnce runs one ForEach over [0, n) writing plain, shard-owned
// counters and checks every index was visited exactly once — under -race
// that also checks the helpers' writes happen before ForEach returns.
func coverOnce(t *testing.T, p *Pool, n int) {
	seen := make([]int, n)
	p.ForEach(n, func(shard, lo, hi int) {
		for i := lo; i < hi; i++ {
			seen[i]++
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Errorf("index %d visited %d times", i, c)
			return
		}
	}
}

// Units that share one Split pool call ForEach concurrently: each call
// owns its job, so whichever call the helpers are busy with, every call
// visits each of its shards exactly once.
func TestPoolConcurrentCallers(t *testing.T) {
	p := NewPool(4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 200; r++ {
				coverOnce(t, p, 100+37*g+r)
			}
		}(g)
	}
	wg.Wait()
}

// A shard function that calls ForEach on the same pool terminates: the
// inner call never waits for a helper that is waiting for it.
func TestPoolNestedForEach(t *testing.T) {
	p := NewPool(4)
	for r := 0; r < 50; r++ {
		const outer = 5 * shardSize
		inner := make([]int, outer)
		p.ForEach(outer, func(shard, lo, hi int) {
			coverOnce(t, p, 3*shardSize+shard)
			for i := lo; i < hi; i++ {
				inner[i]++
			}
		})
		for i, c := range inner {
			if c != 1 {
				t.Fatalf("outer index %d visited %d times", i, c)
			}
		}
	}
}

// With one P a helper can only run when the caller yields and the caller
// only when the helper does: helpers started on four Ps and still
// lingering must not starve calls made after GOMAXPROCS drops to 1.
func TestPoolSingleP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p := NewPool(8)
	coverOnce(t, p, 1000)
	runtime.GOMAXPROCS(1)
	for r := 0; r < 500; r++ {
		coverOnce(t, p, 1000)
	}
}

// Helpers exit on their own once linger has passed: shortly after the
// last call the goroutine count is back where it was, with no Close.
func TestPoolHelpersExit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := runtime.NumGoroutine()
	for _, workers := range []int{2, 8} {
		p := NewPool(workers)
		for r := 0; r < 20; r++ {
			coverOnce(t, p, 1000)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still alive, %d before the first call", runtime.NumGoroutine(), base)
		}
		time.Sleep(linger)
	}
}

// forEachCapturing runs one call, shared with the helpers, whose closure
// captures a freshly allocated object, and returns a channel closed by
// the object's finalizer. Not inlined, so nothing of the call survives
// in the caller's frame.
//
//go:noinline
func forEachCapturing(p *Pool) <-chan struct{} {
	collected := make(chan struct{})
	captured := new([1 << 10]int)
	runtime.SetFinalizer(captured, func(*[1 << 10]int) { close(collected) })
	p.ForEach(len(captured), func(_, lo, hi int) {
		// Long enough per shard that the helpers join in rather than
		// find the caller has claimed everything.
		for t0 := time.Now(); time.Since(t0) < 20*time.Microsecond; {
			captured[lo]++
		}
	})
	return collected
}

// A finished call is garbage even while its helpers linger: neither the
// pool nor a polling helper keeps the job, its closure or what the
// closure captured (in a unit, a whole system) reachable. The collector
// scans stacks first, well inside the linger window, so a retaining pool
// fails about every other round; the odd round is lost legitimately, to a
// helper the OS descheduled with the job it had just finished in hand
// (1–2 % of rounds under -race with more Ps than cores).
func TestPoolFinishedJobCollectable(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p := NewPool(4)
	const rounds = 50
	retained := 0
	for round := 0; round < rounds; round++ {
		collected := forEachCapturing(p)
		runtime.GC()
		select {
		case <-collected:
		case <-time.After(200 * time.Millisecond):
			if retained++; retained == rounds/5 {
				t.Fatalf("after %d calls, the closures of %d were still reachable past a forced GC", round+1, retained)
			}
		}
	}
}
