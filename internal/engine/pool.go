// Package engine is the unified parallel scenario engine: one CoordSystem
// interface over the simulated coordinate systems (Vivaldi, NPS), a
// worker-pool executor that shards per-tick node updates across goroutines,
// and a declarative scenario registry that the experiment layer drives
// every paper figure through.
//
// A scenario's runs execute on one of two backends (RunSpec.Backend): the
// closed-form in-memory adapters, or the live backend (live_adapter.go),
// which boots daemon nodes over a virtual UDP network so the same
// workloads — including attack injection, rewritten at the wire layer —
// replay over real message exchange.
//
// Determinism is the engine's core contract: the shard decomposition of any
// index range is a pure function of the range length (never of the worker
// count), every shard owns disjoint state, randomness comes from per-node
// or per-shard streams derived via internal/randx, and the few operations
// that touch shared mutable state (attack taps, conspiracy caches) run in a
// fixed serial order. A fixed seed therefore yields bit-identical data
// series whether a scenario runs on one worker or sixteen.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// shardSize is the number of consecutive indices per shard. It is a
// constant — NOT derived from the worker count — so that per-shard RNG
// streams and per-shard accumulators are identical however many workers
// execute the shards.
const shardSize = 32

// NumShards returns the shard count for an index range of length n. It is
// a pure function of n: the same range always decomposes the same way.
func NumShards(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + shardSize - 1) / shardSize
}

// ShardBounds returns the [lo, hi) index range of one shard.
func ShardBounds(shard, n int) (lo, hi int) {
	lo = shard * shardSize
	hi = lo + shardSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// Sharder executes a function over the fixed shard decomposition of an
// index range. The simulation packages (vivaldi, nps) accept a Sharder so
// they need not depend on the engine's pool implementation; Serial is the
// trivial single-goroutine implementation.
type Sharder interface {
	// ForEach calls fn(shard, lo, hi) for every shard of [0, n), possibly
	// concurrently. fn must confine its writes to shard-owned state.
	ForEach(n int, fn func(shard, lo, hi int))
	// NumShards reports how many shards ForEach(n, ...) visits. It must be
	// a pure function of n so callers can size per-shard accumulators.
	NumShards(n int) int
}

// Serial is the Sharder that runs every shard inline on the calling
// goroutine, in shard order.
type Serial struct{}

// ForEach implements Sharder.
func (Serial) ForEach(n int, fn func(shard, lo, hi int)) {
	for s, k := 0, NumShards(n); s < k; s++ {
		lo, hi := ShardBounds(s, n)
		fn(s, lo, hi)
	}
}

// NumShards implements Sharder.
func (Serial) NumShards(n int) int { return NumShards(n) }

// Pool is a bounded worker pool implementing Sharder. The zero worker
// count resolves to GOMAXPROCS. It is safe for concurrent use by
// independent units; every ForEach call owns its own job, the pool only
// points helpers at the most recent one.
type Pool struct {
	workers int
	// job is the call helpers should be draining, nil between calls. The
	// owning call clears it before it returns, so the pool never keeps a
	// finished job (and the system its closure captured) reachable.
	job atomic.Pointer[job]
	// helpers counts the live helper goroutines.
	helpers atomic.Int32
}

// NewPool returns a pool of the given width; workers <= 0 means
// GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool width.
func (p *Pool) Workers() int { return p.workers }

// NumShards implements Sharder.
func (p *Pool) NumShards(n int) int { return NumShards(n) }

// linger is how long a helper that has run out of shards keeps polling
// the pool for the next call before it exits. A tick is three ForEach
// calls of ~0.2 ms each at 5000 nodes with serial work in between (the
// forged-response phase of an attacked tick is the longest such gap,
// ~0.19 ms); a helper that outlives the gap spares the next call a
// goroutine start and, above all, an OS thread wake-up, which on a small
// host costs more than the phase it is woken for. It is a constant
// because the gap it has to cover is a property of the tick kernels, not
// of a run: at 20 µs helpers expire inside every attacked tick and a
// 5000-node unit runs 2–4 % longer, at 5 ms nothing more is gained. Past
// it the helper is gone, so nothing needs closing.
const linger = 500 * time.Microsecond

// job is one ForEach call: the shards of [0, n) still to be claimed and
// the count of shards not yet finished, which the calling goroutine
// waits on.
type job struct {
	n, shards int
	fn        func(shard, lo, hi int)
	next      atomic.Int64 // next shard to claim
	left      atomic.Int64 // shards not yet finished
}

// drain claims and runs shards until none is left to claim, and reports
// whether it ran any. The finished count is settled once per drain, not
// per shard: the counter is the one cache line every participant writes.
func (j *job) drain() bool {
	if j.next.Load() >= int64(j.shards) {
		return false // a poll of a claimed-out job writes nothing
	}
	ran := 0
	for {
		s := int(j.next.Add(1)) - 1
		if s >= j.shards {
			break
		}
		lo, hi := ShardBounds(s, j.n)
		j.fn(s, lo, hi)
		ran++
	}
	if ran > 0 {
		j.left.Add(int64(-ran))
	}
	return ran > 0
}

// ForEach implements Sharder. With one worker (or one shard) it runs
// inline with no goroutine or synchronization overhead, which keeps tiny
// populations fast. Otherwise the calling goroutine claims shards from
// the call's atomic counter itself, alongside up to
// min(workers, GOMAXPROCS) − 1 helper goroutines that are started on
// demand and linger between calls (see linger). A call that finds its
// helpers busy with another call on the same pool — units sharing a Split
// pool, or a nested call — simply runs all of its shards itself; which
// goroutine runs a shard is not part of the determinism contract.
func (p *Pool) ForEach(n int, fn func(shard, lo, hi int)) {
	shards := NumShards(n)
	if shards == 0 {
		return
	}
	if p.workers == 1 || shards == 1 {
		Serial{}.ForEach(n, fn)
		return
	}
	j := &job{n: n, shards: shards, fn: fn}
	j.left.Store(int64(shards))
	p.job.Store(j)
	want := min(p.workers, runtime.GOMAXPROCS(0), shards) - 1
	for h := p.helpers.Load(); int(h) < want; h = p.helpers.Load() {
		if p.helpers.CompareAndSwap(h, h+1) {
			go p.help()
		}
	}
	j.drain()
	// Every shard is claimed, so helpers have nothing more to find here,
	// and those still running are at most one shard each from done. That
	// wait is microseconds: spin on the counter and yield the processor
	// only when it drags on (the helper may be the one who needs it)
	// rather than park this thread and pay to wake it.
	p.job.CompareAndSwap(j, nil)
	for spins := 0; j.left.Load() != 0; spins++ {
		if spins >= 64 {
			runtime.Gosched()
		}
	}
}

// help is a helper goroutine: it drains whatever call the pool points at,
// then polls for the next one, yielding between polls, and exits once
// linger has passed without work.
func (p *Pool) help() {
	defer p.helpers.Add(-1)
	idle := time.Now()
	for {
		if p.assist() {
			idle = time.Now()
		} else if time.Since(idle) > linger {
			return
		}
		runtime.Gosched()
	}
}

// assist drains the call the pool points at, if any, and reports whether
// it ran a shard. It is its own frame so that no slot of help's ever holds
// a job: the collector scans a preempted goroutine's innermost frame
// conservatively, dead slots included, and with the load written inline
// in help one forced GC in six found a finished call — and whatever its
// closure captured, in a unit a whole system — still reachable from a
// lingering helper.
//
//go:noinline
func (p *Pool) assist() bool {
	j := p.job.Load()
	return j != nil && j.drain()
}

// RunUnits executes fn(0), ..., fn(n-1), each exactly once, across
// min(Workers, n) goroutines. Units must confine their writes to
// unit-owned state (typically slot u of a results slice); callers reduce
// in index order, which keeps outcomes independent of the worker count.
func (p *Pool) RunUnits(n int, fn func(u int)) {
	if n <= 0 {
		return
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for u := 0; u < n; u++ {
			fn(u)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				u := int(next.Add(1)) - 1
				if u >= n {
					return
				}
				fn(u)
			}
		}()
	}
	wg.Wait()
}

// Split divides the pool between nUnits independent units running
// concurrently (via RunUnits, which caps the unit lane at the same
// min(Workers, nUnits)): it returns the pool each unit should use for its
// own sharded work. Lane width times per-unit width never exceeds the pool
// width, and the decomposition does not affect results — only wall-clock
// time.
func (p *Pool) Split(nUnits int) *Pool {
	if nUnits < 1 {
		nUnits = 1
	}
	unitWorkers := p.workers
	if unitWorkers > nUnits {
		unitWorkers = nUnits
	}
	inner := p.workers / unitWorkers
	if inner < 1 {
		inner = 1
	}
	return NewPool(inner)
}
