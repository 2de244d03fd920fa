package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/coordspace"
	"repro/internal/latency"
)

func TestRelativeErrorDefinition(t *testing.T) {
	// |actual-predicted| / min(actual, predicted)
	if got := RelativeError(100, 50); got != 1 {
		t.Fatalf("got %v, want 1", got)
	}
	if got := RelativeError(50, 100); got != 1 {
		t.Fatalf("got %v, want 1", got)
	}
	if got := RelativeError(100, 100); got != 0 {
		t.Fatalf("got %v, want 0", got)
	}
	if got := RelativeError(0, 10); got != 1 {
		t.Fatalf("degenerate actual: got %v, want 1", got)
	}
	if got := RelativeError(0, 0); got != 0 {
		t.Fatalf("both zero: got %v, want 0", got)
	}
}

func TestRelativeErrorSymmetryProperty(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Abs(a)+0.001, math.Abs(b)+0.001
		return math.Abs(RelativeError(a, b)-RelativeError(b, a)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleError(t *testing.T) {
	if got := SampleError(100, 150); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("got %v, want 0.5", got)
	}
	if got := SampleError(0, 5); got != 0 {
		t.Fatalf("rtt=0: got %v", got)
	}
}

func TestPeerSetsAllPairs(t *testing.T) {
	peers := PeerSets(4, 0, 1)
	for i, set := range peers {
		if len(set) != 3 {
			t.Fatalf("node %d peer count %d", i, len(set))
		}
		for _, j := range set {
			if j == i {
				t.Fatalf("node %d includes itself", i)
			}
		}
	}
}

func TestPeerSetsSampled(t *testing.T) {
	peers := PeerSets(100, 10, 42)
	for i, set := range peers {
		if len(set) != 10 {
			t.Fatalf("node %d has %d peers", i, len(set))
		}
		seen := map[int]bool{}
		for _, j := range set {
			if j == i || j < 0 || j >= 100 {
				t.Fatalf("node %d has invalid peer %d", i, j)
			}
			if seen[j] {
				t.Fatalf("node %d has duplicate peer %d", i, j)
			}
			seen[j] = true
		}
	}
	// Deterministic, and the same table however it is cut and in
	// whatever order the cuts are filled.
	again := make([][]int, 100)
	PeerSetsShard(again, 10, 42, 64, 100)
	PeerSetsShard(again, 10, 42, 0, 64)
	for i := range peers {
		for k := range peers[i] {
			if peers[i][k] != again[i][k] {
				t.Fatal("PeerSets not deterministic")
			}
		}
	}
}

func TestNodeErrorsPerfectEmbedding(t *testing.T) {
	// Nodes on a line embed exactly in 1-D: errors must be ~0.
	n := 5
	m := latency.NewMatrix(n)
	pos := []float64{0, 10, 25, 40, 80}
	space := coordspace.Euclidean(1)
	coords := make([]coordspace.Coord, n)
	for i := 0; i < n; i++ {
		coords[i] = coordspace.Coord{V: []float64{pos[i]}}
		for j := i + 1; j < n; j++ {
			m.Set(i, j, math.Abs(pos[i]-pos[j]))
		}
	}
	errs := NodeErrors(m, space, coords, PeerSets(n, 0, 1), nil)
	for i, e := range errs {
		if e > 1e-9 {
			t.Fatalf("node %d error %v in perfect embedding", i, e)
		}
	}
}

func TestNodeErrorsExcludes(t *testing.T) {
	n := 3
	m := latency.NewMatrix(n)
	m.Set(0, 1, 10)
	m.Set(0, 2, 10)
	m.Set(1, 2, 10)
	space := coordspace.Euclidean(2)
	coords := make([]coordspace.Coord, n)
	for i := range coords {
		coords[i] = space.Zero()
	}
	errs := NodeErrors(m, space, coords, PeerSets(n, 0, 1), func(i int) bool { return i != 1 })
	if !math.IsNaN(errs[1]) {
		t.Fatalf("excluded node error %v, want NaN", errs[1])
	}
	if math.IsNaN(errs[0]) || math.IsNaN(errs[2]) {
		t.Fatal("included nodes got NaN")
	}
}

func TestMeanIgnoresNaN(t *testing.T) {
	if got := Mean([]float64{1, math.NaN(), 3}); got != 2 {
		t.Fatalf("mean %v, want 2", got)
	}
	if !math.IsNaN(Mean([]float64{math.NaN()})) {
		t.Fatal("all-NaN mean should be NaN")
	}
}

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := MedianExactInto(xs, nil); got != 3 {
		t.Fatalf("median %v", got)
	}
	if Percentile(xs, 0) != 1 || Percentile(xs, 1) != 5 {
		t.Fatal("percentile extremes wrong")
	}
}

// TestPercentileNearestRank locks the nearest-rank rule to round-half-up:
// the old floor truncation biased P90/P99 low on small samples (P90 of
// five values returned the 4th smallest instead of the 5th).
func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"p90 of 5 rounds up", []float64{1, 2, 3, 4, 5}, 0.90, 5},      // idx 3.6 → 4
		{"p99 of 5 rounds up", []float64{1, 2, 3, 4, 5}, 0.99, 5},      // idx 3.96 → 4
		{"p75 of 5 half rounds up", []float64{1, 2, 3, 4, 5}, 0.75, 4}, // idx 3.0
		{"median of 5", []float64{5, 1, 4, 2, 3}, 0.50, 3},
		{"median of 4 half up", []float64{1, 2, 3, 4}, 0.50, 3},     // idx 1.5 → 2
		{"p10 of 5 rounds down", []float64{1, 2, 3, 4, 5}, 0.10, 1}, // idx 0.4 → 0
		{"p25 of 5", []float64{1, 2, 3, 4, 5}, 0.25, 2},             // idx 1.0
		{"p90 of 11 exact", []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.90, 9},
		{"single value", []float64{7}, 0.99, 7},
		{"unsorted input", []float64{9, 0, 7, 3, 5}, 0.90, 9},
		{"NaNs ignored", []float64{math.NaN(), 1, math.NaN(), 2, 3, 4, 5}, 0.90, 5},
		{"p0 is min", []float64{4, 4, 1}, 0, 1},
		{"p1 is max", []float64{4, 4, 9}, 1, 9},
	}
	for _, tc := range cases {
		if got := Percentile(tc.xs, tc.p); got != tc.want {
			t.Errorf("%s: Percentile(%v, %v) = %v, want %v", tc.name, tc.xs, tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 0.5)) || !math.IsNaN(Percentile([]float64{math.NaN()}, 0.5)) {
		t.Error("empty / all-NaN input should yield NaN")
	}
}

// TestQuantilesReusesBuffer asserts the quickselect path neither mutates
// its input nor allocates once the scratch buffers are warm, and agrees
// with a sort-based reference on random-ish data.
func TestQuantilesReusesBuffer(t *testing.T) {
	xs := []float64{9, 0, 7, 3, 5, 2, 8, 1, 6, 4}
	orig := append([]float64(nil), xs...)
	ps := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
	out := make([]float64, len(ps))
	buf := make([]float64, 0, len(xs))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, got := range Quantiles(xs, ps, out, buf) {
		want := sorted[int(math.Floor(ps[i]*float64(len(sorted)-1)+0.5))]
		if got != want {
			t.Fatalf("Quantiles(p=%v) = %v, want %v", ps[i], got, want)
		}
	}
	for i := range xs {
		if xs[i] != orig[i] {
			t.Fatal("Quantiles mutated its input")
		}
	}
	allocs := testing.AllocsPerRun(50, func() { Quantiles(xs, ps, out, buf) })
	if allocs != 0 {
		t.Fatalf("Quantiles with warm buffers allocates %.1f times, want 0", allocs)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(2, 1) != 2 {
		t.Fatal("ratio")
	}
	if !math.IsNaN(Ratio(1, 0)) {
		t.Fatal("ratio with zero reference should be NaN")
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if c.N() != 4 {
		t.Fatalf("N %d", c.N())
	}
	if got := c.At(2); got != 0.5 {
		t.Fatalf("At(2)=%v, want 0.5", got)
	}
	if got := c.At(0.5); got != 0 {
		t.Fatalf("At(0.5)=%v, want 0", got)
	}
	if got := c.At(4); got != 1 {
		t.Fatalf("At(4)=%v, want 1", got)
	}
	if got := c.At(3.5); got != 0.75 {
		t.Fatalf("At(3.5)=%v, want 0.75", got)
	}
}

func TestCDFIgnoresNaN(t *testing.T) {
	c := NewCDF([]float64{1, math.NaN(), 2})
	if c.N() != 2 {
		t.Fatalf("N %d, want 2", c.N())
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	c := NewCDF([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	f := func(a, b float64) bool {
		lo, hi := math.Min(a, b), math.Max(a, b)
		return c.At(lo) <= c.At(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5})
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("points %d", len(pts))
	}
	if pts[0][1] != 0 || pts[4][1] != 1 {
		t.Fatal("point fractions wrong")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i][0] < pts[i-1][0] {
			t.Fatal("CDF points not monotone in value")
		}
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	if q := c.Quantile(0.5); q != 30 {
		t.Fatalf("quantile %v", q)
	}
}

func TestRandomBaselineIsLarge(t *testing.T) {
	m := latency.GenerateKingLike(latency.DefaultKingLike(60), 3)
	space := coordspace.Euclidean(2)
	peers := PeerSets(60, 0, 1)
	base := RandomBaseline(m, space, peers, 50000, 9)
	// Random coordinates at scale 50000 against ~100ms RTTs: enormous error.
	if base < 10 {
		t.Fatalf("random baseline %v suspiciously small", base)
	}
}

func TestConvergenceDetector(t *testing.T) {
	d := NewConvergenceDetector()
	for i := 0; i < 9; i++ {
		if d.Observe(0.5) {
			t.Fatalf("converged after %d observations", i+1)
		}
	}
	if !d.Observe(0.5) {
		t.Fatal("not converged after 10 stable observations")
	}
	d.Reset()
	if d.Converged() {
		t.Fatal("converged after reset")
	}
	// A jump wider than the window must break convergence.
	for i := 0; i < 10; i++ {
		d.Observe(0.5)
	}
	if d.Observe(0.6) {
		t.Fatal("converged despite 0.1 jump")
	}
}

func TestConvergenceWithinWindow(t *testing.T) {
	d := NewConvergenceDetector()
	vals := []float64{0.50, 0.51, 0.505, 0.515, 0.50, 0.51, 0.515, 0.505, 0.51, 0.515}
	conv := false
	for _, v := range vals {
		conv = d.Observe(v)
	}
	if !conv {
		t.Fatal("variation within 0.02 should converge")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Add(1, 0.5)
	s.Add(2, 0.7)
	s.Add(3, 0.9)
	if s.Len() != 3 || s.Last() != 0.9 {
		t.Fatalf("series %+v", s)
	}
	if got := s.TailMean(2); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("tail mean %v", got)
	}
	if got := s.TailMean(10); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("tail mean over length %v", got)
	}
	var empty Series
	if !math.IsNaN(empty.Last()) || !math.IsNaN(empty.TailMean(3)) {
		t.Fatal("empty series should yield NaN")
	}
}

// TestQuantiles pins the batched quantile helper against Percentile: one
// NaN filter, many ranks, same answers — and quickselect's partial
// reordering between ranks must not change them.
func TestQuantiles(t *testing.T) {
	xs := []float64{9, 1, math.NaN(), 4, 7, 2, 8, 3, math.NaN(), 5, 6}
	ps := []float64{0, 0.25, 0.5, 0.99, 1}
	got := Quantiles(xs, ps, nil, nil)
	for i, p := range ps {
		want := Percentile(xs, p)
		if got[i] != want {
			t.Errorf("Quantiles p=%g: got %g, want %g", p, got[i], want)
		}
	}
	if out := Quantiles(nil, []float64{0.5}, nil, nil); !math.IsNaN(out[0]) {
		t.Errorf("Quantiles on empty input: got %g, want NaN", out[0])
	}
	// Caller-scratch reuse: warm out/buf must be reused, not grown.
	out := make([]float64, 2)
	buf := make([]float64, 0, len(xs))
	res := Quantiles(xs, []float64{0.5, 0.99}, out, buf)
	if &res[0] != &out[0] {
		t.Error("Quantiles did not reuse the caller's out slice")
	}
}

func TestMedianExactIntoBasics(t *testing.T) {
	if v := MedianExactInto(nil, nil); !math.IsNaN(v) {
		t.Fatalf("empty median = %v, want NaN", v)
	}
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 2, 3}, 2.5},
		{[]float64{-5, 10}, 2.5},
		{[]float64{2, 2, 2, 2}, 2},
	}
	for _, c := range cases {
		if got := MedianExactInto(c.xs, nil); got != c.want {
			t.Fatalf("MedianExactInto(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestMedianExactIntoMatchesSortProperty(t *testing.T) {
	// Bit-equality with the classic sort-then-average median on random
	// inputs, odd and even lengths, reusing one scratch buffer throughout —
	// this is the contract nps's security filter relies on.
	buf := make([]float64, 0, 64)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = (r.Float64()*2 - 1) * 1e3
		}
		orig := append([]float64(nil), xs...)

		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		var want float64
		if n%2 == 1 {
			want = sorted[n/2]
		} else {
			want = (sorted[n/2-1] + sorted[n/2]) / 2
		}

		if got := MedianExactInto(xs, buf); got != want {
			return false
		}
		// xs must come back untouched (the copy goes through buf).
		for i := range xs {
			if xs[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
