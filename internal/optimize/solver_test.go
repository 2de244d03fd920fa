package optimize

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// referenceMinimize is the pre-Solver implementation (allocating simplex,
// sort.Slice ordering), kept verbatim as the bit-identity oracle: the
// reusable Solver must reproduce its iterate sequence exactly, which the
// tests below check by recording every objective evaluation point.
func referenceMinimize(f func([]float64) float64, x0 []float64, opt Options) Result {
	dim := len(x0)
	if dim == 0 {
		panic("optimize: empty starting point")
	}
	opt = opt.withDefaults(dim)

	eval := func(x []float64) float64 {
		v := f(x)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}

	n := dim + 1
	pts := make([][]float64, n)
	vals := make([]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		copy(p, x0)
		if i > 0 {
			p[i-1] += opt.InitStep
		}
		pts[i] = p
		vals[i] = eval(p)
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	centroid := make([]float64, dim)
	trial := make([]float64, dim)
	trial2 := make([]float64, dim)

	iters := 0
	for ; iters < opt.MaxIter; iters++ {
		sort.Slice(order, func(a, b int) bool { return vals[order[a]] < vals[order[b]] })
		best, worst := order[0], order[n-1]

		spread := math.Abs(vals[worst] - vals[best])
		scale := math.Abs(vals[worst]) + math.Abs(vals[best]) + 1e-12
		if spread/scale < opt.Tol || spread < opt.Tol*opt.Tol {
			break
		}

		for d := 0; d < dim; d++ {
			centroid[d] = 0
		}
		for _, i := range order[:n-1] {
			for d, x := range pts[i] {
				centroid[d] += x
			}
		}
		for d := range centroid {
			centroid[d] /= float64(n - 1)
		}

		for d := range trial {
			trial[d] = centroid[d] + (centroid[d] - pts[worst][d])
		}
		fr := eval(trial)

		switch {
		case fr < vals[best]:
			for d := range trial2 {
				trial2[d] = centroid[d] + 2*(centroid[d]-pts[worst][d])
			}
			if fe := eval(trial2); fe < fr {
				copy(pts[worst], trial2)
				vals[worst] = fe
			} else {
				copy(pts[worst], trial)
				vals[worst] = fr
			}
		case fr < vals[order[n-2]]:
			copy(pts[worst], trial)
			vals[worst] = fr
		default:
			if fr < vals[worst] {
				for d := range trial2 {
					trial2[d] = centroid[d] + 0.5*(trial[d]-centroid[d])
				}
			} else {
				for d := range trial2 {
					trial2[d] = centroid[d] + 0.5*(pts[worst][d]-centroid[d])
				}
			}
			if fc := eval(trial2); fc < math.Min(fr, vals[worst]) {
				copy(pts[worst], trial2)
				vals[worst] = fc
			} else {
				for _, i := range order[1:] {
					for d := range pts[i] {
						pts[i][d] = pts[best][d] + 0.5*(pts[i][d]-pts[best][d])
					}
					vals[i] = eval(pts[i])
				}
			}
		}
	}

	sort.Slice(order, func(a, b int) bool { return vals[order[a]] < vals[order[b]] })
	best := order[0]
	out := make([]float64, dim)
	copy(out, pts[best])
	return Result{X: out, F: vals[best], Iters: iters}
}

// recorder wraps an objective and appends a copy of every evaluation point,
// exposing the full iterate sequence for bit-level comparison.
type recorder struct {
	f     func([]float64) float64
	trace []float64
}

func (r *recorder) eval(x []float64) float64 {
	r.trace = append(r.trace, x...)
	return r.f(x)
}

// testObjectives are shapes that exercise every branch of the algorithm:
// reflection, expansion, both contractions, shrink, and the NaN guard.
func testObjectives() map[string]func([]float64) float64 {
	return map[string]func([]float64) float64{
		"sphere": func(x []float64) float64 {
			s := 0.0
			for _, v := range x {
				s += v * v
			}
			return s
		},
		"rosenbrock": func(x []float64) float64 {
			a, b := x[0], x[1]
			return (1-a)*(1-a) + 100*(b-a*a)*(b-a*a)
		},
		"abs-ridge": func(x []float64) float64 {
			s := math.Sin(x[0] * 3)
			for i, v := range x {
				s += math.Abs(v) * float64(i+1)
			}
			return s
		},
		"nan-region": func(x []float64) float64 {
			if x[0] < 0 {
				return math.NaN()
			}
			return (x[0] - 2) * (x[0] - 2)
		},
	}
}

func TestSolverMatchesReferenceIterates(t *testing.T) {
	// The Solver must walk through exactly the same evaluation points, in
	// the same order, as the historical implementation — bit for bit. A
	// non-symmetric start avoids initial-simplex value ties, where the two
	// sorts (stable insertion vs unstable sort.Slice) may legally differ.
	x0 := []float64{0.3, -1.7}
	opt := Options{MaxIter: 300, InitStep: 7}
	for name, f := range testObjectives() {
		ref := &recorder{f: f}
		want := referenceMinimize(ref.eval, x0, opt)

		got2 := &recorder{f: f}
		var s Solver
		got := s.Minimize(Func(got2.eval), x0, opt)

		if len(ref.trace) != len(got2.trace) {
			t.Fatalf("%s: evaluation count diverged: ref %d, solver %d",
				name, len(ref.trace)/len(x0), len(got2.trace)/len(x0))
		}
		for i := range ref.trace {
			if ref.trace[i] != got2.trace[i] {
				t.Fatalf("%s: iterate %d diverged: ref %v, solver %v",
					name, i/len(x0), ref.trace[i], got2.trace[i])
			}
		}
		if got.F != want.F || got.Iters != want.Iters {
			t.Fatalf("%s: result diverged: ref (F=%v,it=%d), solver (F=%v,it=%d)",
				name, want.F, want.Iters, got.F, got.Iters)
		}
		for d := range want.X {
			if got.X[d] != want.X[d] {
				t.Fatalf("%s: X[%d] = %v, want %v", name, d, got.X[d], want.X[d])
			}
		}
	}
}

func TestSolverMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(6)
		center := make([]float64, dim)
		x0 := make([]float64, dim)
		for i := range center {
			center[i] = (r.Float64()*2 - 1) * 40
			x0[i] = (r.Float64()*2 - 1) * 40
		}
		obj := func(x []float64) float64 {
			s := 0.0
			for i, v := range x {
				d := v - center[i]
				s += d * d * float64(i+1)
			}
			return s
		}
		opt := Options{MaxIter: 100 + r.Intn(400), InitStep: 1 + r.Float64()*30}
		want := referenceMinimize(obj, x0, opt)
		var s Solver
		got := s.Minimize(Func(obj), x0, opt)
		if got.F != want.F || got.Iters != want.Iters || len(got.X) != len(want.X) {
			return false
		}
		for d := range want.X {
			if got.X[d] != want.X[d] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSolverFindsMinima(t *testing.T) {
	// The reusable Solver passes the same convergence checks as the
	// package-level entry point: quadratic bowls and the Rosenbrock valley.
	var s Solver
	bowl := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + (x[1]+4)*(x[1]+4)
	}
	res := s.Minimize(Func(bowl), []float64{0, 0}, Options{})
	if math.Abs(res.X[0]-3) > 1e-2 || math.Abs(res.X[1]+4) > 1e-2 {
		t.Fatalf("bowl minimum %v, want (3,-4)", res.X)
	}

	rosen := func(x []float64) float64 {
		a, b := x[0], x[1]
		return (1-a)*(1-a) + 100*(b-a*a)*(b-a*a)
	}
	res = s.Minimize(Func(rosen), []float64{-1.2, 1}, Options{MaxIter: 5000, InitStep: 0.5})
	if math.Abs(res.X[0]-1) > 0.01 || math.Abs(res.X[1]-1) > 0.01 {
		t.Fatalf("rosenbrock minimum %v, want (1,1)", res.X)
	}
}

func TestSolverReusePurity(t *testing.T) {
	// Scratch reuse must not leak state between solves: a warm Solver's
	// second solve is bit-identical to a fresh Solver's on the same problem,
	// including after a dimensionality switch.
	problems := []struct {
		f   func([]float64) float64
		x0  []float64
		opt Options
	}{
		{func(x []float64) float64 { return (x[0] - 5) * (x[0] - 5) }, []float64{40}, Options{}},
		{func(x []float64) float64 {
			a, b := x[0], x[1]
			return (1-a)*(1-a) + 100*(b-a*a)*(b-a*a)
		}, []float64{0.3, -1.7}, Options{MaxIter: 800, InitStep: 0.5}},
		{func(x []float64) float64 {
			s := 0.0
			for i, v := range x {
				s += (v - float64(i)) * (v - float64(i))
			}
			return s
		}, []float64{2.2, -0.4, 9.1}, Options{InitStep: 25}},
	}
	var warm Solver
	for round := 0; round < 2; round++ {
		for pi, p := range problems {
			got := warm.Minimize(Func(p.f), p.x0, p.opt)
			want := minimize(p.f, p.x0, p.opt)
			if got.F != want.F || got.Iters != want.Iters {
				t.Fatalf("round %d problem %d: warm (F=%v,it=%d) vs fresh (F=%v,it=%d)",
					round, pi, got.F, got.Iters, want.F, want.Iters)
			}
			for d := range want.X {
				if got.X[d] != want.X[d] {
					t.Fatalf("round %d problem %d: X[%d] = %v, want %v",
						round, pi, d, got.X[d], want.X[d])
				}
			}
		}
	}
}

func TestSolverResultAliasesScratch(t *testing.T) {
	// Documented contract: Result.X from the Solver method is only valid
	// until the next Minimize call. Verify the aliasing actually happens so
	// callers cannot silently start depending on an accidental copy.
	var s Solver
	f := func(x []float64) float64 { return x[0] * x[0] }
	first := s.Minimize(Func(f), []float64{3}, Options{})
	before := first.X[0]
	s.Minimize(Func(f), []float64{1e6}, Options{MaxIter: 1})
	if first.X[0] == before {
		t.Fatalf("Result.X should alias solver scratch, but survived a second solve: %v", before)
	}
}
