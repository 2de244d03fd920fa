// Package optimize provides the Simplex Downhill (Nelder–Mead) minimizer
// that GNP and NPS use to embed nodes: both systems position a host by
// minimizing an objective over the measured distances to their landmarks or
// reference points (§2.1, §3.1 of the paper).
//
// The implementation is the textbook algorithm with standard coefficients
// (reflection 1, expansion 2, contraction ½, shrink ½) and a relative
// function-spread stopping rule, which is what the original GNP code used.
package optimize

// Options controls a minimization. Zero fields take defaults.
type Options struct {
	MaxIter  int     // maximum iterations (default 400·dim)
	Tol      float64 // stop when the simplex function spread falls below Tol (default 1e-8)
	InitStep float64 // initial simplex edge length (default 10, i.e. 10 ms)
}

func (o Options) withDefaults(dim int) Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 400 * dim
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.InitStep <= 0 {
		o.InitStep = 10
	}
	return o
}

// Result reports the outcome of a minimization.
type Result struct {
	X     []float64 // best point found
	F     float64   // objective value at X
	Iters int       // iterations used
}
