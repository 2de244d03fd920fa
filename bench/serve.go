package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coordspace"
	"repro/internal/engine"
	"repro/internal/serve"
)

// The publishers' periods are 37 us off a whole millisecond on purpose.
// Something on the host recurs every millisecond (the guest kernel ticks at
// 250 Hz, so presumably the hypervisor's timer) and costs a publication it
// lands in ~15 us. At a period that is a multiple of a millisecond every
// publication of a window meets it at the same phase, so a window was either
// all hit or all spared: a 5000-node publication read 104 us or 121 us, per
// window, at random. Off the multiple, each window sweeps every phase.
const (
	ringSize     = 8                        // consecutive barrier stores the publisher cycles
	servePeriod  = 50037 * time.Microsecond // the serve workloads' publisher: 20 Hz
	probePeriod  = 1037 * time.Microsecond  // a sim workload's served windows: ~1 kHz, see runSim
	rttBatch     = 16                       // EstimateRTT calls timed as one batch
	recordEvery  = 256                      // every Nth k-NN and RTT batch is kept for verification
	maxVerify    = 128                      // kept k-NN answers re-answered per reader per window
	maxLatencies = 1 << 20                  // per-window latency samples kept per reader
	exiledNodes  = 16
	exileRadius  = 50000 // the paper's repulsion scale, ms
	maxK         = 16
)

// query is one pre-generated stream entry: a k-NN of node a at k, and the
// pair (a, b) for EstimateRTT.
type query struct{ a, b, k int32 }

// genStream pre-generates n seeded queries over a population (n a power
// of two, so readers wrap with a mask).
func genStream(seed int64, n, nodes int) []query {
	rng := rand.New(rand.NewSource(seed))
	ks := [...]int32{1, 4, maxK}
	qs := make([]query, n)
	for i := range qs {
		a := rng.Intn(nodes)
		b := rng.Intn(nodes - 1)
		if b >= a {
			b++
		}
		qs[i] = query{int32(a), int32(b), ks[rng.Intn(len(ks))]}
	}
	return qs
}

// buildRing converges cs for the given ticks, then keeps the stores of
// the next ringSize barriers: real consecutive epochs for the publisher
// to cycle, so simulation cost stays out of the measured windows.
func buildRing(cs engine.CoordSystem, pool *engine.Pool, ticks int) []*coordspace.Store {
	for t := 0; t < ticks; t++ {
		cs.Step(pool)
	}
	ring := make([]*coordspace.Store, ringSize)
	for i := range ring {
		cs.Step(pool)
		ring[i] = coordspace.NewStore(cs.Store().Space(), cs.Size())
		ring[i].CopyFrom(cs.Store())
	}
	return ring
}

// exile moves the same seeded nodes of every ring store to the exile
// radius, each at its own seeded bearing — what the paper's repulsion and
// colluding-isolation attacks leave behind.
func exile(ring []*coordspace.Store, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	n := ring[0].Len()
	for _, id := range rng.Perm(n)[:min(exiledNodes, n)] {
		theta := rng.Float64() * 2 * math.Pi
		for _, st := range ring {
			c := st.CoordAt(id)
			for d := range c.V {
				c.V[d] = 0
			}
			c.V[0] = exileRadius * math.Cos(theta)
			if len(c.V) > 1 {
				c.V[1] = exileRadius * math.Sin(theta)
			}
			st.SetCoordAt(id, c)
		}
	}
}

// knnRecord keeps one timed NearestK answer with the snapshot it was
// answered on, to be re-answered by the linear oracle after the window.
type knnRecord struct {
	snap    *serve.Snapshot
	node, k int32
	n       int32
	res     [maxK]serve.Neighbor
}

// verify re-answers the query by linear scan on the same snapshot: ids
// and distances must match bit for bit.
func (r *knnRecord) verify(sc *serve.Scratch, out []serve.Neighbor) bool {
	want := r.snap.NearestKLinear(int(r.node), int(r.k), sc, out)
	if len(want) != int(r.n) {
		return false
	}
	for i, w := range want {
		if w.ID != r.res[i].ID || math.Float64bits(w.Dist) != math.Float64bits(r.res[i].Dist) {
			return false
		}
	}
	return true
}

// rttRecord keeps one EstimateRTT answer and the epoch it was served at.
type rttRecord struct {
	tick int
	a, b int32
	got  float64
}

type reader struct {
	pos     int // cursor into the stream
	knnNS   []float64
	batchNS []float64
	knn     int // k-NN queries answered this window
	batches int // RTT batches answered this window
	knnRecs []knnRecord
	rttRecs []rttRecord
	scratch serve.Scratch
	out     []serve.Neighbor
	sink    float64
}

// serveBench drives one serve engine: a fixed-rate publisher cycling the
// ring, closed-loop readers cycling the stream.
type serveBench struct {
	eng     *serve.Engine
	ring    []*coordspace.Store
	stream  []query
	readers []*reader
	period  time.Duration // between publications
	epoch   int           // publications so far; epoch%ringSize is the store served
}

func newServeBench(ring []*coordspace.Store, stream []query, readers int, period time.Duration) *serveBench {
	sb := &serveBench{eng: serve.NewEngine(), ring: ring, stream: stream, period: period}
	for i := 0; i < readers; i++ {
		sb.readers = append(sb.readers, &reader{
			pos:     i * (len(stream) / readers),
			knnNS:   make([]float64, 0, maxLatencies),
			batchNS: make([]float64, 0, maxLatencies),
			knnRecs: make([]knnRecord, 0, maxLatencies/recordEvery),
			rttRecs: make([]rttRecord, 0, maxLatencies/recordEvery),
			out:     make([]serve.Neighbor, 0, maxK),
		})
	}
	sb.publish()
	return sb
}

func (sb *serveBench) publish() {
	sb.eng.Publish(sb.ring[sb.epoch%ringSize], sb.epoch)
	sb.epoch++
}

// run answers queries until stop is set: one timed NearestK, then one
// timed batch of EstimateRTT, each on the snapshot current at that moment.
// It answers at least one of each, so a window has a sample even when the
// host kept this goroutine off the processor for all of it.
func (rd *reader) run(sb *serveBench, stop *atomic.Bool) {
	mask := len(sb.stream) - 1
	for first := true; first || !stop.Load(); first = false {
		snap := sb.eng.Current()
		q := sb.stream[rd.pos]

		t0 := time.Now()
		rd.out = snap.NearestK(int(q.a), int(q.k), &rd.scratch, rd.out)
		d := time.Since(t0)
		if len(rd.knnNS) < cap(rd.knnNS) {
			rd.knnNS = append(rd.knnNS, float64(d))
		}
		if rd.knn%recordEvery == 0 && len(rd.knnRecs) < cap(rd.knnRecs) {
			rec := knnRecord{snap: snap, node: q.a, k: q.k, n: int32(len(rd.out))}
			copy(rec.res[:], rd.out)
			rd.knnRecs = append(rd.knnRecs, rec)
		}
		rd.knn++

		t0 = time.Now()
		s := 0.0
		for j := 0; j < rttBatch; j++ {
			p := sb.stream[(rd.pos+j)&mask]
			s += snap.EstimateRTT(int(p.a), int(p.b))
		}
		d = time.Since(t0)
		rd.sink += s
		if len(rd.batchNS) < cap(rd.batchNS) {
			rd.batchNS = append(rd.batchNS, float64(d))
		}
		if rd.batches%recordEvery == 0 && len(rd.rttRecs) < cap(rd.rttRecs) {
			rd.rttRecs = append(rd.rttRecs, rttRecord{snap.Tick(), q.a, q.b, snap.EstimateRTT(int(q.a), int(q.b))})
		}
		rd.batches++
		rd.pos = (rd.pos + rttBatch) & mask
	}
}

// waitUntil paces the publisher by yielding, not sleeping. A barrier
// publisher is a simulation thread that was busy until the barrier, not one
// the OS wakes for it; and a sleeping publisher lets the timer's wake-up
// jitter into publish_ms and, through where the woken thread lands, into the
// readers' tail.
func waitUntil(t time.Time) {
	for time.Until(t) > 0 {
		runtime.Gosched()
	}
}

// windowResult is what one window measured.
type windowResult struct {
	wallS     float64
	queries   int // individual queries: k-NN + every EstimateRTT
	knnP50US  float64
	knnP99US  float64
	rttNS     float64
	publishMS []float64
	mallocs   float64
	allocMB   float64
	checked   int
	failed    int
}

// window measures one window and verifies the answers it kept.
func (sb *serveBench) window(publishes int) windowResult {
	res := sb.measure(publishes)
	sb.verify(&res)
	return res
}

// measure runs `publishes` publications at the fixed rate beside the
// readers and reports what it measured. The window's length is therefore
// fixed by its publish count, and the work it allocates is the
// publisher's.
func (sb *serveBench) measure(publishes int) windowResult {
	for _, rd := range sb.readers {
		rd.knnNS, rd.batchNS = rd.knnNS[:0], rd.batchNS[:0]
		rd.knnRecs, rd.rttRecs = rd.knnRecs[:0], rd.rttRecs[:0]
		rd.knn, rd.batches = 0, 0
	}
	runtime.GC()

	// Readers are started before the first memory reading and held at a
	// spin gate, so goroutine start-up is outside the counted allocations.
	var gate, stop atomic.Bool
	var wg sync.WaitGroup
	for _, rd := range sb.readers {
		wg.Add(1)
		go func(rd *reader) {
			defer wg.Done()
			for !gate.Load() {
				runtime.Gosched()
			}
			rd.run(sb, &stop)
		}(rd)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := windowResult{publishMS: make([]float64, 0, publishes)}
	start := time.Now()
	gate.Store(true)
	for p := 0; p < publishes; p++ {
		waitUntil(start.Add(time.Duration(p) * sb.period))
		t0 := time.Now()
		sb.publish()
		res.publishMS = append(res.publishMS, float64(time.Since(t0))/1e6)
	}
	waitUntil(start.Add(time.Duration(publishes) * sb.period))
	stop.Store(true)
	wg.Wait()
	res.wallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	res.mallocs = float64(m1.Mallocs - m0.Mallocs)
	res.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6

	var knn, batch []float64
	for _, rd := range sb.readers {
		res.queries += rd.knn + rd.batches*rttBatch
		knn = append(knn, rd.knnNS...)
		batch = append(batch, rd.batchNS...)
	}
	sort.Float64s(knn)
	res.knnP50US = percentile(knn, 0.50) / 1e3
	res.knnP99US = percentile(knn, 0.99) / 1e3
	sort.Float64s(batch)
	res.rttNS = percentile(batch, 0.50) / rttBatch
	return res
}

// verify re-answers an evenly spaced subset of each reader's kept k-NN
// answers by linear scan, and every kept EstimateRTT against the ring
// store that epoch served.
func (sb *serveBench) verify(res *windowResult) {
	var wg sync.WaitGroup
	checked := make([]int, len(sb.readers))
	failed := make([]int, len(sb.readers))
	for i, rd := range sb.readers {
		wg.Add(1)
		go func(i int, rd *reader) {
			defer wg.Done()
			var sc serve.Scratch
			out := make([]serve.Neighbor, 0, maxK)
			step := max(1, len(rd.knnRecs)/maxVerify)
			for j := 0; j < len(rd.knnRecs); j += step {
				checked[i]++
				if !rd.knnRecs[j].verify(&sc, out) {
					failed[i]++
				}
			}
			for _, r := range rd.rttRecs {
				checked[i]++
				want := sb.ring[r.tick%ringSize].Dist(int(r.a), int(r.b))
				if math.Float64bits(want) != math.Float64bits(r.got) {
					failed[i]++
				}
			}
			for j := range rd.knnRecs {
				rd.knnRecs[j].snap = nil // release the window's snapshots
			}
		}(i, rd)
	}
	wg.Wait()
	for i := range sb.readers {
		res.checked += checked[i]
		res.failed += failed[i]
	}
}
