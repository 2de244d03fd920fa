// Package randx provides deterministic randomness helpers for the
// simulation: seed derivation for independent per-entity streams, and the
// handful of distributions the latency substrate and the attack models need
// beyond what math/rand offers directly.
//
// Every stream is an ordinary *rand.Rand built from an explicit 64-bit seed,
// so a whole experiment is reproducible from a single root seed. Derived
// seeds are produced by mixing the parent seed with a label and an index
// through a SplitMix64-style finalizer, which keeps sibling streams
// statistically independent without any shared state.
package randx

import (
	"math"
	"math/rand"
	"reflect"
)

// Mix64 is the SplitMix64 finalizer. It maps any 64-bit value to a
// well-mixed 64-bit value and is the basis for all seed derivation here.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeriveSeed deterministically derives a child seed from a parent seed, a
// textual label (e.g. "latency", "attack") and an index (e.g. a node id or
// repetition number). Distinct (label, index) pairs yield independent seeds.
func DeriveSeed(parent int64, label string, index int) int64 {
	h := Mix64(uint64(parent))
	for _, b := range []byte(label) {
		h = Mix64(h ^ uint64(b))
	}
	h = Mix64(h ^ uint64(uint(index)))
	return int64(h)
}

// New returns a new deterministic stream for the given seed.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// NewDerived returns a new stream seeded by DeriveSeed(parent, label, index).
func NewDerived(parent int64, label string, index int) *rand.Rand {
	return New(DeriveSeed(parent, label, index))
}

// CopySource returns an independent copy of a source built by
// rand.NewSource, at its current position: both sides continue the same
// sequence and neither moves the other. math/rand exposes no copy and its
// seeded generator cannot be replaced (every golden depends on its exact
// output), so the state behind the pointer is copied by reflection — a
// quarter of the cost of seeding. It needs the Source itself (a
// *rand.Rand keeps its source unexported): callers that fork streams keep
// the Source beside each *rand.Rand they build from it.
func CopySource(src rand.Source) rand.Source {
	state := reflect.ValueOf(src).Elem()
	dup := reflect.New(state.Type())
	dup.Elem().Set(state)
	return dup.Interface().(rand.Source)
}

// Uniform returns a sample uniform in [lo, hi).
func Uniform(r *rand.Rand, lo, hi float64) float64 {
	return lo + r.Float64()*(hi-lo)
}

// LogNormal returns a sample from a log-normal distribution whose underlying
// normal has mean mu and standard deviation sigma.
func LogNormal(r *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(r.NormFloat64()*sigma + mu)
}

// Pareto returns a sample from a Pareto distribution with scale xm > 0 and
// shape alpha > 0. Heavy-tailed; used for access-link delays.
func Pareto(r *rand.Rand, xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Exponential returns a sample from an exponential distribution with the
// given mean.
func Exponential(r *rand.Rand, mean float64) float64 {
	return r.ExpFloat64() * mean
}

// Perm returns a random permutation of [0, n) drawn from r.
func Perm(r *rand.Rand, n int) []int { return r.Perm(n) }

// Sample returns k distinct values drawn uniformly from [0, n) in random
// order. It panics if k > n.
func Sample(r *rand.Rand, n, k int) []int {
	if k > n {
		panic("randx: sample size larger than population")
	}
	// Sparse draws use rejection sampling: O(k) space and expected O(k)
	// draws. Without this, per-node peer sampling at 25k–50k nodes pays
	// O(n) allocation per node — O(n²) for a population. The dense
	// partial Fisher–Yates below stays for k comparable to n, where
	// rejection would re-roll too often.
	if k > 0 && k <= n/32 {
		seen := make(map[int]bool, k)
		out := make([]int, 0, k)
		for len(out) < k {
			j := r.Intn(n)
			if !seen[j] {
				seen[j] = true
				out = append(out, j)
			}
		}
		return out
	}
	// Partial Fisher-Yates over a dense index slice: O(n) space, O(k) swaps.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k:k]
}

// Bernoulli returns true with probability p.
func Bernoulli(r *rand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Pick returns a uniformly random element of xs. It panics on empty input.
func Pick[T any](r *rand.Rand, xs []T) T {
	if len(xs) == 0 {
		panic("randx: pick from empty slice")
	}
	return xs[r.Intn(len(xs))]
}
