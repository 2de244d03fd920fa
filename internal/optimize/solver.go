package optimize

import "math"

// Objective is the allocation-free form of a minimization target: Eval
// returns the function value at x. Implementations that keep their data in
// flat slices (see gnp's host objectives) let a hot loop re-aim one
// objective value at new data instead of allocating a closure per solve.
type Objective interface {
	Eval(x []float64) float64
}

// Func adapts a plain function to Objective.
type Func func([]float64) float64

// Eval implements Objective.
func (f Func) Eval(x []float64) float64 { return f(x) }

// Solver is a reusable Nelder–Mead minimizer: the simplex vertices, their
// values, the ordering permutation and the centroid/trial vectors are all
// owned by the Solver and reused across Minimize calls, so a warm Solver
// solves without heap allocation. The zero value is ready to use. A Solver
// is not safe for concurrent use; sharded callers keep one per shard.
type Solver struct {
	dim      int
	pts      []float64 // (dim+1)×dim vertex matrix, row-major
	vals     []float64 // objective value per vertex
	order    []int     // vertex permutation, ascending by vals
	centroid []float64
	trial    []float64
	trial2   []float64
}

// grow (re)sizes the scratch for a dim-dimensional problem. Solvers that
// alternate between dimensionalities reallocate on every switch; hot
// callers solve one dimensionality per Solver.
func (s *Solver) grow(dim int) {
	if s.dim == dim && s.pts != nil {
		return
	}
	n := dim + 1
	s.dim = dim
	s.pts = make([]float64, n*dim)
	s.vals = make([]float64, n)
	s.order = make([]int, n)
	s.centroid = make([]float64, dim)
	s.trial = make([]float64, dim)
	s.trial2 = make([]float64, dim)
}

// at returns vertex i, aliased into the flat vertex matrix.
func (s *Solver) at(i int) []float64 { return s.pts[i*s.dim : (i+1)*s.dim] }

// sortOrder sorts s.order ascending by vals. Insertion sort: the simplex
// holds only dim+1 vertices, the permutation is nearly sorted after the
// first iteration, and — unlike sort.Slice — it allocates nothing. For
// distinct values every comparison sort yields the same permutation, so
// the iterate sequence is unchanged from the former sort.Slice call.
func (s *Solver) sortOrder() {
	order, vals := s.order, s.vals
	for i := 1; i < len(order); i++ {
		oi := order[i]
		v := vals[oi]
		j := i - 1
		for j >= 0 && vals[order[j]] > v {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = oi
	}
}

// sanitize maps NaN objective values to +inf so the simplex retreats from
// them.
func sanitize(v float64) float64 {
	if math.IsNaN(v) {
		return math.Inf(1)
	}
	return v
}

// Minimize runs Nelder–Mead on f starting from x0 and returns the best
// point found. f must be finite at x0; non-finite values elsewhere are
// treated as +inf so the simplex retreats from them. x0 is not modified.
// The returned Result.X aliases solver scratch: it is valid only until the
// next Minimize call on this Solver, and callers that retain it must copy
// it out.
func (s *Solver) Minimize(f Objective, x0 []float64, opt Options) Result {
	dim := len(x0)
	if dim == 0 {
		panic("optimize: empty starting point")
	}
	opt = opt.withDefaults(dim)
	s.grow(dim)

	// Initial simplex: x0 plus one vertex per axis at InitStep.
	n := dim + 1
	for i := 0; i < n; i++ {
		p := s.at(i)
		copy(p, x0)
		if i > 0 {
			p[i-1] += opt.InitStep
		}
		s.vals[i] = sanitize(f.Eval(p))
	}
	for i := range s.order {
		s.order[i] = i
	}
	vals, centroid, trial, trial2 := s.vals, s.centroid, s.trial, s.trial2

	iters := 0
	for ; iters < opt.MaxIter; iters++ {
		s.sortOrder()
		best, worst := s.order[0], s.order[n-1]

		// Relative spread stopping rule.
		spread := math.Abs(vals[worst] - vals[best])
		scale := math.Abs(vals[worst]) + math.Abs(vals[best]) + 1e-12
		if spread/scale < opt.Tol || spread < opt.Tol*opt.Tol {
			break
		}

		// Centroid of all but the worst vertex, accumulated in sorted
		// order (the summation order is part of the bit-identity contract
		// with the previous implementation).
		for d := 0; d < dim; d++ {
			centroid[d] = 0
		}
		for _, i := range s.order[:n-1] {
			for d, x := range s.at(i) {
				centroid[d] += x
			}
		}
		for d := range centroid {
			centroid[d] /= float64(n - 1)
		}

		// Reflection.
		pw := s.at(worst)
		for d := range trial {
			trial[d] = centroid[d] + (centroid[d] - pw[d])
		}
		fr := sanitize(f.Eval(trial))

		switch {
		case fr < vals[best]:
			// Expansion.
			for d := range trial2 {
				trial2[d] = centroid[d] + 2*(centroid[d]-pw[d])
			}
			if fe := sanitize(f.Eval(trial2)); fe < fr {
				copy(pw, trial2)
				vals[worst] = fe
			} else {
				copy(pw, trial)
				vals[worst] = fr
			}
		case fr < vals[s.order[n-2]]:
			// Accept reflection.
			copy(pw, trial)
			vals[worst] = fr
		default:
			// Contraction (outside if reflection improved on worst,
			// inside otherwise).
			if fr < vals[worst] {
				for d := range trial2 {
					trial2[d] = centroid[d] + 0.5*(trial[d]-centroid[d])
				}
			} else {
				for d := range trial2 {
					trial2[d] = centroid[d] + 0.5*(pw[d]-centroid[d])
				}
			}
			if fc := sanitize(f.Eval(trial2)); fc < math.Min(fr, vals[worst]) {
				copy(pw, trial2)
				vals[worst] = fc
			} else {
				// Shrink toward the best vertex.
				pb := s.at(best)
				for _, i := range s.order[1:] {
					p := s.at(i)
					for d := range p {
						p[d] = pb[d] + 0.5*(p[d]-pb[d])
					}
					vals[i] = sanitize(f.Eval(p))
				}
			}
		}
	}

	s.sortOrder()
	best := s.order[0]
	return Result{X: s.at(best), F: vals[best], Iters: iters}
}
