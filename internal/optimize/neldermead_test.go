package optimize

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// minimize solves on a fresh Solver, so the Result (whose X aliases that
// solver's scratch) is the caller's to keep.
func minimize(f func([]float64) float64, x0 []float64, opt Options) Result {
	var s Solver
	return s.Minimize(Func(f), x0, opt)
}

func TestQuadratic1D(t *testing.T) {
	f := func(x []float64) float64 { return (x[0] - 3) * (x[0] - 3) }
	res := minimize(f, []float64{0}, Options{})
	if math.Abs(res.X[0]-3) > 1e-3 {
		t.Fatalf("minimum at %v, want 3", res.X[0])
	}
	if res.F > 1e-6 {
		t.Fatalf("objective %v", res.F)
	}
}

func TestSphereND(t *testing.T) {
	for _, dim := range []int{2, 5, 8} {
		f := func(x []float64) float64 {
			s := 0.0
			for _, v := range x {
				s += v * v
			}
			return s
		}
		x0 := make([]float64, dim)
		for i := range x0 {
			x0[i] = 25
		}
		res := minimize(f, x0, Options{})
		for _, v := range res.X {
			if math.Abs(v) > 0.01 {
				t.Fatalf("dim %d: minimum %v not near origin", dim, res.X)
			}
		}
	}
}

func TestRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a, b := x[0], x[1]
		return (1-a)*(1-a) + 100*(b-a*a)*(b-a*a)
	}
	res := minimize(f, []float64{-1.2, 1}, Options{MaxIter: 5000, InitStep: 0.5})
	if math.Abs(res.X[0]-1) > 0.01 || math.Abs(res.X[1]-1) > 0.01 {
		t.Fatalf("rosenbrock minimum %v, want (1,1)", res.X)
	}
}

func TestShiftedQuadraticProperty(t *testing.T) {
	// The solver always recovers the center of a shifted quadratic bowl.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 2 + r.Intn(5)
		center := make([]float64, dim)
		for i := range center {
			center[i] = (r.Float64()*2 - 1) * 50
		}
		obj := func(x []float64) float64 {
			s := 0.0
			for i, v := range x {
				d := v - center[i]
				s += d * d
			}
			return s
		}
		res := minimize(obj, make([]float64, dim), Options{MaxIter: 4000, InitStep: 20})
		for i, v := range res.X {
			if math.Abs(v-center[i]) > 0.5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNeverWorseThanStart(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		obj := func(x []float64) float64 {
			s := 0.0
			for i, v := range x {
				s += math.Abs(v) * float64(i+1)
			}
			return s + math.Sin(x[0])
		}
		x0 := []float64{r.Float64() * 10, r.Float64() * 10}
		res := minimize(obj, x0, Options{MaxIter: 200})
		return res.F <= obj(x0)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHandlesNaNObjective(t *testing.T) {
	f := func(x []float64) float64 {
		if x[0] < 0 {
			return math.NaN()
		}
		return (x[0] - 2) * (x[0] - 2)
	}
	res := minimize(f, []float64{5}, Options{})
	if math.Abs(res.X[0]-2) > 0.01 {
		t.Fatalf("minimum %v with NaN region, want 2", res.X[0])
	}
}

func TestMaxIterRespected(t *testing.T) {
	calls := 0
	f := func(x []float64) float64 {
		calls++
		return x[0] * x[0]
	}
	res := minimize(f, []float64{100}, Options{MaxIter: 10})
	if res.Iters > 10 {
		t.Fatalf("iters %d, want <=10", res.Iters)
	}
	// Each iteration evaluates a handful of points at most (reflection,
	// expansion/contraction, possible shrink of dim vertices).
	if calls > 2+10*4 {
		t.Fatalf("too many evaluations: %d", calls)
	}
}

func TestEmptyStartPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	minimize(func(x []float64) float64 { return 0 }, nil, Options{})
}

func TestDoesNotMutateStart(t *testing.T) {
	x0 := []float64{7, 7}
	minimize(func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] }, x0, Options{})
	if x0[0] != 7 || x0[1] != 7 {
		t.Fatalf("start point mutated: %v", x0)
	}
}

func TestGNPStyleObjective(t *testing.T) {
	// Recover a 2-D position from noisy distances to 4 anchors - the exact
	// shape of the GNP/NPS positioning problem.
	anchors := [][2]float64{{0, 0}, {100, 0}, {0, 100}, {100, 100}}
	truth := [2]float64{30, 60}
	dists := make([]float64, len(anchors))
	for i, a := range anchors {
		dists[i] = math.Hypot(truth[0]-a[0], truth[1]-a[1])
	}
	obj := func(x []float64) float64 {
		s := 0.0
		for i, a := range anchors {
			pred := math.Hypot(x[0]-a[0], x[1]-a[1])
			rel := (pred - dists[i]) / dists[i]
			s += rel * rel
		}
		return s
	}
	res := minimize(obj, []float64{50, 50}, Options{})
	if math.Abs(res.X[0]-truth[0]) > 0.1 || math.Abs(res.X[1]-truth[1]) > 0.1 {
		t.Fatalf("recovered %v, want %v", res.X, truth)
	}
}
