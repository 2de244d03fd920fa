// Package serve is the coordinate query service: it ingests a running
// population's coordinates from the flat store and answers EstimateRTT and
// NearestK queries at high throughput while the simulation keeps ticking —
// the IDMS-style delay-estimation layer the ROADMAP's "millions of users"
// north star asks for, and the layer that makes coordinate attacks visible
// to consumers (a CDN client's replica pick is only as good as the served
// answers).
//
// The design has three load-bearing pieces:
//
//   - Epoch snapshots. The publisher (the simulation's tick loop, via
//     Engine.Publish at each measurement barrier) copies the live store
//     flat (Store.CopyFrom, one memcpy) into an immutable Snapshot and
//     swaps it in with one atomic pointer store. Readers load the pointer
//     and query with no locks, no reference counting and no coordination
//     with the writer; a snapshot, once published, never changes, so a
//     reader holding epoch e computes bit-identical answers no matter how
//     many epochs are published meanwhile. Old snapshots are reclaimed by
//     the garbage collector when the last reader drops them — that is what
//     buys the zero-synchronization read path.
//
//   - A spatial grid index, built per snapshot over the flat buffer,
//     answering NearestK by expanding cell rings instead of scanning the
//     population. The linear scan stays as the correctness oracle and the
//     paired benchmark baseline.
//
//   - Caller-scratch query APIs in the DistMany/Quantiles style:
//     EstimateRTT and NearestK allocate nothing once the caller's Scratch
//     and result slice are warm (guarded by bench-guard's query ceiling).
//
// Staleness contract: a reader sees coordinates at most one publication
// interval old — Publish is called at every measurement barrier, so the
// bound is MeasureEvery ticks (Engine.Stats reports the widest gap
// actually observed). Queries against one snapshot are mutually
// consistent: both endpoints of EstimateRTT come from the same tick.
package serve

import (
	"sync"
	"sync/atomic"

	"repro/internal/coordspace"
)

// Neighbor is one NearestK result: a node id and its coordinate distance
// (the served RTT estimate) from the query node.
type Neighbor struct {
	ID   int32
	Dist float64
}

// Snapshot is one immutable published view of the population: a flat copy
// of the coordinate store plus the spatial index built over it. All methods
// are safe for any number of concurrent readers.
type Snapshot struct {
	epoch uint64
	tick  int
	store *coordspace.Store
	grid  gridIndex
}

// Epoch returns the snapshot's publication sequence number (1-based).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Tick returns the simulation tick the snapshot was taken at.
func (s *Snapshot) Tick() int { return s.tick }

// Len returns the population size.
func (s *Snapshot) Len() int { return s.store.Len() }

// Space returns the embedding geometry.
func (s *Snapshot) Space() coordspace.Space { return s.store.Space() }

// EstimateRTT returns the served RTT estimate between nodes a and b: their
// coordinate distance in this snapshot. Allocation-free.
func (s *Snapshot) EstimateRTT(a, b int) float64 {
	return s.store.Dist(a, b)
}

// Engine owns the current-snapshot pointer. One publisher (Publish is
// serialized internally) and any number of lock-free readers (Current).
// The zero value is not ready; use NewEngine.
type Engine struct {
	cur       atomic.Pointer[Snapshot]
	published atomic.Uint64
	maxGap    atomic.Int64

	mu       sync.Mutex // serializes publishers
	prevTick int64
	havePrev bool
	counts   []int32 // grid-build scratch, publisher-owned, reused
}

// NewEngine returns an empty engine: Current is nil until the first
// Publish.
func NewEngine() *Engine { return &Engine{} }

// Publish copies src flat into a fresh immutable snapshot, builds its
// spatial index, and swaps it in as the current epoch. It is the
// per-barrier path: cost is one memcpy of the store plus an O(n) counting
// sort, independent of query load. Safe to call from one goroutine while
// readers query; concurrent publishers serialize on an internal mutex.
// Returns the published snapshot.
func (e *Engine) Publish(src *coordspace.Store, tick int) *Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()

	st := coordspace.NewStore(src.Space(), src.Len())
	st.CopyFrom(src)
	snap := &Snapshot{
		epoch: e.published.Load() + 1,
		tick:  tick,
		store: st,
	}
	snap.grid, e.counts = buildGrid(st, e.counts)

	if e.havePrev {
		if gap := int64(tick) - e.prevTick; gap > e.maxGap.Load() {
			e.maxGap.Store(gap)
		}
	}
	e.prevTick, e.havePrev = int64(tick), true
	e.published.Add(1)
	e.cur.Store(snap)
	return snap
}

// Current returns the latest published snapshot (nil before the first
// Publish). One atomic load; safe from any goroutine.
func (e *Engine) Current() *Snapshot { return e.cur.Load() }

// Stats is the engine's publication counters, exposed for run banners and
// tests.
type Stats struct {
	Published         uint64 // snapshots published since start
	Epoch             uint64 // current epoch (== Published)
	Tick              int    // tick of the current snapshot (-1 when none)
	MaxStalenessTicks int    // widest tick gap between consecutive snapshots
	Clamped           int    // current snapshot's nodes outside the index box (exiled)
}

// Stats returns the publication counters. The max staleness is the widest
// observed gap between consecutive snapshot ticks — the worst case for how
// old a reader's view can be just before the next barrier publishes.
func (e *Engine) Stats() Stats {
	s := Stats{
		Published:         e.published.Load(),
		MaxStalenessTicks: int(e.maxGap.Load()),
		Tick:              -1,
	}
	s.Epoch = s.Published
	if snap := e.cur.Load(); snap != nil {
		s.Tick, s.Clamped = snap.tick, snap.grid.clamped
	}
	return s
}
