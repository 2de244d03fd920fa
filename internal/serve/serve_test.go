package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/coordspace"
	"repro/internal/latency"
	"repro/internal/randx"
)

// randomStore fills an n-slot store with RandomAt draws from a seeded
// stream.
func randomStore(space coordspace.Space, n int, seed int64) *coordspace.Store {
	st := coordspace.NewStore(space, n)
	rng := randx.New(seed)
	for i := 0; i < n; i++ {
		st.RandomAt(i, rng, 120)
	}
	return st
}

func publish(t *testing.T, st *coordspace.Store) *Snapshot {
	t.Helper()
	return NewEngine().Publish(st, 0)
}

// checkAgainstLinear answers every node's k-NN for k ∈ {1, 4, 16} on both
// paths: ids, distances, ascending order and lower-id tie-breaks must be
// bit-identical.
func checkAgainstLinear(t *testing.T, label string, snap *Snapshot) {
	t.Helper()
	var sc, scLin Scratch
	var got, want []Neighbor
	for _, k := range []int{1, 4, 16} {
		for node := 0; node < snap.Len(); node++ {
			got = snap.NearestK(node, k, &sc, got)
			want = snap.NearestKLinear(node, k, &scLin, want)
			if len(got) != len(want) {
				t.Fatalf("%s k=%d node=%d: grid %d results, linear %d", label, k, node, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
					t.Fatalf("%s k=%d node=%d result %d: grid %+v, linear %+v", label, k, node, i, got[i], want[i])
				}
			}
			for i := 1; i < len(got); i++ {
				if heapWorse(got[i-1].Dist, got[i-1].ID, got[i].Dist, got[i].ID) {
					t.Fatalf("%s k=%d node=%d: results out of order at %d: %+v", label, k, node, i, got)
				}
			}
		}
	}
}

// TestNearestKMatchesLinear is the index-vs-oracle property test: over
// random populations (with and without the height dimension), every grid
// answer must be bit-identical to the linear scan — same ids, same
// distances, same ascending order, same lower-id tie-breaks.
func TestNearestKMatchesLinear(t *testing.T) {
	spaces := []coordspace.Space{
		coordspace.Euclidean(2),
		coordspace.Euclidean(5),
		coordspace.EuclideanHeight(2),
	}
	sizes := []int{2, 3, 17, 120, 400}
	for si, space := range spaces {
		for _, n := range sizes {
			st := randomStore(space, n, int64(100*si+n))
			// Duplicated coordinates force exact distance ties.
			for _, dup := range []int{n / 3, n / 2, n - 1} {
				if dup > 0 {
					st.CopySlotFrom(dup, st, 0)
				}
			}
			checkAgainstLinear(t, fmt.Sprintf("%s n=%d", space.Name(), n), publish(t, st))
		}
	}
}

// setPlanar moves node i to (x, y) — x alone in a 1-D space — keeping its
// other components and height.
func setPlanar(st *coordspace.Store, i int, x, y float64) {
	c := st.CoordAt(i)
	c.V[0] = x
	if len(c.V) > 1 {
		c.V[1] = y
	}
	st.SetCoordAt(i, c)
}

// exileTo moves the first m nodes to the given radius, each at a seeded
// bearing drawn from [0, arc).
func exileTo(st *coordspace.Store, m int, radius, arc float64, seed int64) {
	rng := randx.New(seed)
	for i := 0; i < m; i++ {
		theta := rng.Float64() * arc
		setPlanar(st, i, radius*math.Cos(theta), radius*math.Sin(theta))
	}
}

// scaleAll multiplies every Euclidean component by f (heights stay).
func scaleAll(st *coordspace.Store, f float64) {
	for i := 0; i < st.Len(); i++ {
		c := st.CoordAt(i)
		for d := range c.V {
			c.V[d] *= f
		}
		st.SetCoordAt(i, c)
	}
}

// TestNearestKMatchesLinearHostile is the same identity on the geometries
// an attacker (or a bug upstream) can leave in the store. Every node is a
// query node, so every out-of-box node is one too. The ±MaxFloat64 cases
// panicked in Publish, and the underflow case broke tie order, before the
// index chose its box robustly and clamped in float.
func TestNearestKMatchesLinearHostile(t *testing.T) {
	spaces := []coordspace.Space{
		coordspace.Euclidean(1),
		coordspace.Euclidean(2),
		coordspace.Euclidean(5),
		coordspace.EuclideanHeight(2),
	}
	geometries := []struct {
		name string
		warp func(st *coordspace.Store)
	}{
		{"16 exiled at 50000 ms", func(st *coordspace.Store) { exileTo(st, min(16, st.Len()/2), 50_000, 2*math.Pi, 5) }},
		{"one node at 1e39", func(st *coordspace.Store) { setPlanar(st, st.Len()/2, 1e39, -1e39) }},
		{"two nodes at ±MaxFloat64", func(st *coordspace.Store) {
			setPlanar(st, 0, math.MaxFloat64, 0)
			setPlanar(st, st.Len()-1, -math.MaxFloat64, 0)
		}},
		{"30% + 30% at ±MaxFloat64", func(st *coordspace.Store) { // fences give way: the extent overflows
			for i := 0; i < 3*st.Len()/10; i++ {
				setPlanar(st, i, math.MaxFloat64, math.MaxFloat64)
				setPlanar(st, st.Len()-1-i, -math.MaxFloat64, -math.MaxFloat64)
			}
		}},
		{"30% exiled on one bearing", func(st *coordspace.Store) { exileTo(st, 3*st.Len()/10, 50_000, 0.1, 6) }},
		{"60% coincident", func(st *coordspace.Store) { // IQR == 0 on every axis
			for i := 1; i < 6*st.Len()/10; i++ {
				st.CopySlotFrom(i, st, 0)
			}
		}},
		{"denormal spread", func(st *coordspace.Store) { scaleAll(st, 1e-320) }},
		{"spread whose squares underflow", func(st *coordspace.Store) { scaleAll(st, 1e-200) }},
	}
	for _, geo := range geometries {
		t.Run(geo.name, func(t *testing.T) {
			for si, space := range spaces {
				for _, n := range []int{2, 17, 400} {
					st := randomStore(space, n, int64(1000*si+n))
					st.CopySlotFrom(n-1, st, n/2) // one exact tie
					geo.warp(st)
					checkAgainstLinear(t, fmt.Sprintf("%s n=%d", space.Name(), n), publish(t, st))
				}
			}
		})
	}
}

// FuzzNearestKMatchesLinear decodes bytes into a store — byte 0 picks the
// space, then 8 bytes per float64 bit pattern, non-finite values read as 0
// and heights folded to ≥ MinHeight — and holds the index to the oracle.
// The committed seeds under testdata/fuzz run inside plain `go test`.
func FuzzNearestKMatchesLinear(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		spaces := []coordspace.Space{
			coordspace.Euclidean(1), coordspace.Euclidean(2), coordspace.Euclidean(5), coordspace.EuclideanHeight(2),
		}
		space := spaces[int(b[0])%len(spaces)]
		b = b[1:]
		stride := space.Dims
		if space.HasHeight {
			stride++
		}
		n := min(len(b)/(8*stride), 64)
		st := coordspace.NewStore(space, n)
		for i := 0; i < n; i++ {
			c := coordspace.Coord{V: make([]float64, space.Dims), H: space.MinHeight}
			for d := 0; d < stride; d++ {
				v := math.Float64frombits(binary.LittleEndian.Uint64(b[8*(i*stride+d):]))
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 0
				}
				if d < space.Dims {
					c.V[d] = v
				} else {
					c.H += math.Abs(v)
				}
			}
			st.SetCoordAt(i, c)
		}
		checkAgainstLinear(t, space.Name(), NewEngine().Publish(st, 0))
	})
}

// TestGridShapeIgnoresExiles pins what the robust box buys as structure,
// not wall-clock: with 16 of 20 000 nodes at the exile radius the honest
// nodes stay spread over many small cells (a bounding-box grid holds all
// n−16 of them in one), the 16 are counted, and pushing them ten times
// further out changes nothing in the index at all.
func TestGridShapeIgnoresExiles(t *testing.T) {
	const n, exiles = 20_000, 16
	st := randomStore(coordspace.Euclidean(2), n, 9)
	if g := publish(t, st).grid; g.clamped != 0 {
		t.Fatalf("clean uniform population: %d nodes clamped, want 0", g.clamped)
	}
	exileTo(st, exiles, 50_000, 2*math.Pi, 9)
	g := publish(t, st).grid
	if g.clamped != exiles {
		t.Fatalf("clamped %d nodes, want the %d exiles", g.clamped, exiles)
	}
	inSmall := 0
	for c := 0; c < g.w*g.h; c++ {
		if occ := int(g.start[c+1] - g.start[c]); occ <= 32 {
			inSmall += occ
		}
	}
	if inSmall < n*99/100 {
		t.Fatalf("only %d of %d nodes sit in cells holding ≤ 32 ids (grid %d×%d, cell %g)", inSmall, n, g.w, g.h, g.cell)
	}
	exileTo(st, exiles, 500_000, 2*math.Pi, 9)
	if far := publish(t, st).grid; !reflect.DeepEqual(g, far) {
		t.Fatalf("index depends on how far the exiles sit: %d×%d cell %g at 50 000 ms, %d×%d cell %g at 500 000 ms",
			g.w, g.h, g.cell, far.w, far.h, far.cell)
	}
}

// TestNearestKDegenerate covers the single-cell grid: a genesis population
// with every node at the origin has a zero-extent bounding box, and the
// query must still answer — k lowest ids, all at the same distance.
func TestNearestKDegenerate(t *testing.T) {
	st := coordspace.NewStore(coordspace.EuclideanHeight(2), 50)
	snap := publish(t, st)
	var sc Scratch
	out := snap.NearestK(7, 4, &sc, nil)
	wantIDs := []int32{0, 1, 2, 3}
	if len(out) != 4 {
		t.Fatalf("got %d results, want 4", len(out))
	}
	for i, nb := range out {
		if nb.ID != wantIDs[i] {
			t.Fatalf("degenerate population: got ids %v, want %v", out, wantIDs)
		}
		if want := st.Dist(7, int(nb.ID)); nb.Dist != want {
			t.Fatalf("degenerate population: dist %g, want %g", nb.Dist, want)
		}
	}
}

// TestNearestKEdges pins the boundary behavior: k clamps to the
// population, bad arguments yield empty results, and out reuse resets
// length.
func TestNearestKEdges(t *testing.T) {
	st := randomStore(coordspace.Euclidean(2), 5, 3)
	snap := publish(t, st)
	var sc Scratch
	if out := snap.NearestK(0, 100, &sc, nil); len(out) != 4 {
		t.Fatalf("k clamp: got %d results, want 4 (n-1)", len(out))
	}
	stale := []Neighbor{{ID: 99, Dist: -1}}
	for _, bad := range []struct{ node, k int }{{0, 0}, {0, -2}, {-1, 3}, {5, 3}} {
		if out := snap.NearestK(bad.node, bad.k, &sc, stale); len(out) != 0 {
			t.Fatalf("NearestK(%d, %d) returned %v, want empty", bad.node, bad.k, out)
		}
	}
	one := publish(t, coordspace.NewStore(coordspace.Euclidean(2), 1))
	if out := one.NearestK(0, 3, &sc, nil); len(out) != 0 {
		t.Fatalf("population of one returned neighbors: %v", out)
	}
}

// TestEngineStats pins the publication counters and the max-staleness
// bookkeeping (widest tick gap between consecutive epochs).
func TestEngineStats(t *testing.T) {
	eng := NewEngine()
	if s := eng.Stats(); s.Published != 0 || s.Tick != -1 {
		t.Fatalf("fresh engine stats: %+v", s)
	}
	if eng.Current() != nil {
		t.Fatal("fresh engine has a snapshot")
	}
	st := randomStore(coordspace.Euclidean(2), 10, 1)
	for _, tick := range []int{100, 250, 400} {
		eng.Publish(st, tick)
	}
	s := eng.Stats()
	if s.Published != 3 || s.Epoch != 3 || s.Tick != 400 || s.MaxStalenessTicks != 150 {
		t.Fatalf("stats after three publishes: %+v", s)
	}
	if ep := eng.Current().Epoch(); ep != 3 {
		t.Fatalf("current epoch %d, want 3", ep)
	}
	if s.Clamped != 0 {
		t.Fatalf("clean population reports %d clamped nodes", s.Clamped)
	}
	// Two nodes repelled to the exile radius are what the index clamps into
	// its border cells, and what the stats count for the current snapshot.
	setPlanar(st, 3, 50_000, 50_000)
	setPlanar(st, 7, -50_000, -50_000)
	eng.Publish(st, 500)
	if s := eng.Stats(); s.Clamped != 2 || s.Published != 4 {
		t.Fatalf("stats with two exiled nodes: %+v", s)
	}
}

// answerKey folds a query answer into a comparable string, so per-epoch
// answers can be checked for bit-identity.
func answerKey(nbs []Neighbor) string {
	s := ""
	for _, nb := range nbs {
		s += fmt.Sprintf("%d:%b;", nb.ID, math.Float64bits(nb.Dist))
	}
	return s
}

// TestSnapshotConcurrency is the epoch-swap race test: reader goroutines
// query continuously while the writer publishes a run of epochs from a
// mutating store. Every answer a reader computes must be bit-identical to
// the answer the same epoch's retained snapshot gives after the dust
// settles — readers can never observe a half-published or mutated
// snapshot. Run under -race this also proves the pointer-swap discipline.
func TestSnapshotConcurrency(t *testing.T) {
	const (
		nodes  = 300
		epochs = 6
		qNode  = 11
		qK     = 8
	)
	live := randomStore(coordspace.EuclideanHeight(2), nodes, 42)
	eng := NewEngine()
	retained := make([]*Snapshot, epochs+1) // indexed by epoch, filled by the writer
	retained[1] = eng.Publish(live, 0)

	type obs struct {
		epoch uint64
		key   string
	}
	var wg sync.WaitGroup
	var queries atomic.Int64
	results := make([][]obs, 4)
	stop := make(chan struct{})
	for w := range results {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sc Scratch
			var out []Neighbor
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := eng.Current()
				out = snap.NearestK(qNode, qK, &sc, out)
				results[w] = append(results[w], obs{snap.Epoch(), answerKey(out)})
				queries.Add(1)
			}
		}(w)
	}

	// The writer keeps mutating the live store and publishing: epoch e's
	// snapshot must stay frozen no matter what happens to the store after.
	// It paces itself on reader progress (GOMAXPROCS may be 1, so an
	// unpaced writer could finish before any reader is ever scheduled).
	rng := randx.New(7)
	for e := 2; e <= epochs; e++ {
		for target := queries.Load() + 50; queries.Load() < target; {
			runtime.Gosched()
		}
		for i := 0; i < nodes; i++ {
			live.RandomAt(i, rng, 120)
		}
		retained[e] = eng.Publish(live, (e-1)*100)
	}
	for target := queries.Load() + 50; queries.Load() < target; {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()

	var sc Scratch
	var out []Neighbor
	want := make(map[uint64]string)
	for e := 1; e <= epochs; e++ {
		out = retained[e].NearestK(qNode, qK, &sc, out)
		want[uint64(e)] = answerKey(out)
	}
	seen := make(map[uint64]bool)
	for w, rs := range results {
		for _, o := range rs {
			if o.key != want[o.epoch] {
				t.Fatalf("reader %d: epoch %d answer drifted:\n got %s\nwant %s", w, o.epoch, o.key, want[o.epoch])
			}
			seen[o.epoch] = true
		}
	}
	if len(seen) < 3 {
		t.Fatalf("readers observed only %d distinct epochs, want >= 3 (swap race untested)", len(seen))
	}
}

// TestLoadGenDeterministicQuality runs the generator twice against one
// fixed snapshot: the seeded query streams make the quality statistics
// (not the timings) bit-identical, and the mixed-query bookkeeping must
// add up.
func TestLoadGenDeterministicQuality(t *testing.T) {
	const n = 256
	sub := latency.NewKingLikeModel(latency.DefaultKingLike(n), 5)
	st := randomStore(coordspace.EuclideanHeight(2), n, 8)
	eng := NewEngine()
	eng.Publish(st, 0)

	cfg := LoadGenConfig{Queries: 20_000, Readers: 4, Seed: 31, QualityEvery: 16}
	a, err := RunLoadGen(eng, sub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLoadGen(eng, sub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.RTTQueries+a.NNQueries != cfg.Queries {
		t.Fatalf("query split %d+%d != %d", a.RTTQueries, a.NNQueries, cfg.Queries)
	}
	if a.RTTQueries != b.RTTQueries || a.NNQueries != b.NNQueries {
		t.Fatalf("query mix not deterministic: %+v vs %+v", a, b)
	}
	if a.MeanRelErr != b.MeanRelErr || a.NNStretch != b.NNStretch || a.NNSampled != b.NNSampled {
		t.Fatalf("quality stats not deterministic:\n%+v\n%+v", a, b)
	}
	if a.EpochsSeen != 1 {
		t.Fatalf("EpochsSeen %d on a single-epoch engine, want 1", a.EpochsSeen)
	}
	if a.QPS <= 0 || a.P50ns <= 0 || a.P99ns < a.P50ns {
		t.Fatalf("implausible timing stats: %+v", a)
	}
	if a.NNStretch < 1 {
		t.Fatalf("NN stretch %g < 1: served neighbor beat the true optimum", a.NNStretch)
	}
	if a.NNSampled == 0 {
		t.Fatal("no NN quality samples taken")
	}
}

// TestMeasureSnapshotDeterministic pins the per-epoch probe used by the
// campaign test: fixed (snapshot, seed) must reproduce bit-identically.
func TestMeasureSnapshotDeterministic(t *testing.T) {
	const n = 128
	sub := latency.NewKingLikeModel(latency.DefaultKingLike(n), 3)
	snap := publish(t, randomStore(coordspace.EuclideanHeight(2), n, 4))
	var sc Scratch
	a := MeasureSnapshot(snap, sub, 300, 40, 17, &sc)
	b := MeasureSnapshot(snap, sub, 300, 40, 17, &sc)
	if a != b {
		t.Fatalf("probe not deterministic: %+v vs %+v", a, b)
	}
	if math.IsNaN(a.RTTRelErr) || math.IsNaN(a.NNStretch) {
		t.Fatalf("probe produced no samples: %+v", a)
	}
}
