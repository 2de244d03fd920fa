// Package metrics implements the paper's performance indicators (§5.1):
// the relative error of distance prediction, the system-wide average over
// honest nodes, the relative error ratio against a clean reference run, the
// random-coordinate worst-case baseline, CDFs, and the convergence rule
// used to decide when a system has stabilized.
package metrics

import (
	"math"
	"sort"
	"sync"

	"repro/internal/coordspace"
	"repro/internal/latency"
	"repro/internal/randx"
)

// RelativeError is the paper's §3.1 definition:
// |actual − predicted| / min(actual, predicted).
// Degenerate actual/predicted values (≤0) fall back to dividing by the
// larger of the two so the result stays finite and large rather than NaN.
func RelativeError(actual, predicted float64) float64 {
	diff := math.Abs(actual - predicted)
	den := math.Min(actual, predicted)
	if den <= 0 {
		den = math.Max(actual, predicted)
		if den <= 0 {
			return 0
		}
	}
	return diff / den
}

// SampleError is Vivaldi's per-sample error (§3.2):
// |‖xi−xj‖ − rtt| / rtt.
func SampleError(rtt, predicted float64) float64 {
	if rtt <= 0 {
		return 0
	}
	return math.Abs(predicted-rtt) / rtt
}

// PeerSets assigns every node a fixed set of k distinct evaluation peers,
// drawn deterministically from seed. Evaluating prediction error against a
// fixed peer sample (rather than all ~1.5M pairs) is what makes per-tick
// measurement affordable; k=0 means "all other nodes".
func PeerSets(n, k int, seed int64) [][]int {
	peers := make([][]int, n)
	PeerSetsShard(peers, k, seed, 0, n)
	return peers
}

// PeerSetsShard fills rows [lo, hi) of the PeerSets table of len(peers)
// nodes. Every row draws from its own stream derived from (seed, row), so
// disjoint ranges can be filled concurrently and the table is the same
// however it is cut.
func PeerSetsShard(peers [][]int, k int, seed int64, lo, hi int) {
	n := len(peers)
	for i := lo; i < hi; i++ {
		if k <= 0 || k >= n-1 {
			all := make([]int, 0, n-1)
			for j := 0; j < n; j++ {
				if j != i {
					all = append(all, j)
				}
			}
			peers[i] = all
			continue
		}
		rng := randx.NewDerived(seed, "peers", i)
		set := make([]int, 0, k)
		for _, j := range randx.Sample(rng, n-1, k) {
			if j >= i { // skip self by re-indexing
				j++
			}
			set = append(set, j)
		}
		peers[i] = set
	}
}

// NodeErrors computes, for every node with include(i) true, the average
// relative error of its distance predictions to its evaluation peers.
// Nodes with include(i) false get NaN (they are excluded from aggregates).
// It is the boundary form for callers holding a coordinate slice: the
// coordinates are loaded into a flat store and measured by NodeErrorsShard,
// the same arithmetic the engine's measurement pass runs.
func NodeErrors(m latency.Substrate, space coordspace.Space, coords []coordspace.Coord, peers [][]int, include func(int) bool) []float64 {
	st := coordspace.NewStore(space, len(coords))
	for i, c := range coords {
		st.SetCoordAt(i, c)
	}
	out := make([]float64, len(coords))
	NodeErrorsShard(m, st, peers, include, nil, 0, len(out), out)
	return out
}

// NodeErrorsShard is the error kernel: NodeErrors over a flat coordinate
// store, restricted to nodes [lo, hi) and writing into out (which spans
// all nodes). It allocates nothing: disjoint ranges touch disjoint slots,
// so the engine shards a measurement pass across workers with one call per
// shard and a single reused out buffer. Both the predicted distances
// (Store.DistMany) and the true RTTs (Substrate.RTTFrom) resolve in
// per-chunk batches, so the O(n·k) pass reads one contiguous buffer and a
// model-backed substrate recomputes its row in one tight kernel sweep
// rather than interleaved with the error arithmetic.
//
// adj, when non-nil, holds per-node distance adjustment terms (serf's
// hardened-Vivaldi refinement): each predicted distance becomes
// dist + adj[i] + adj[j], falling back to the raw dist when the adjusted
// estimate is not positive (serf's rule — a negative predicted RTT is
// meaningless).
func NodeErrorsShard(m latency.Substrate, st *coordspace.Store, peers [][]int, include func(int) bool, adj []float64, lo, hi int, out []float64) {
	var dists [64]float64 // per-chunk distance batch, stack-allocated
	// The RTT batch crosses the Substrate interface boundary, which
	// escape analysis must treat as leaking — a stack array here would
	// heap-allocate once per shard call (≈800 times per 25k-node pass).
	// A pooled buffer keeps the steady-state sweep allocation-free.
	rb := rttBatchPool.Get().(*[64]float64)
	defer rttBatchPool.Put(rb)
	rtts := rb[:]
	for i := lo; i < hi; i++ {
		if include != nil && !include(i) {
			out[i] = math.NaN()
			continue
		}
		sum, cnt := 0.0, 0
		for ps := peers[i]; len(ps) > 0; {
			chunk := ps
			if len(chunk) > len(dists) {
				chunk = chunk[:len(dists)]
			}
			ps = ps[len(chunk):]
			st.DistMany(i, chunk, dists[:len(chunk)])
			m.RTTFrom(i, chunk, rtts[:len(chunk)])
			for k, j := range chunk {
				if j < 0 {
					continue // RTTFrom left the slot untouched (stale buffer)
				}
				actual := rtts[k]
				if actual <= 0 {
					continue
				}
				pred := dists[k]
				if adj != nil {
					if a := pred + adj[i] + adj[j]; a > 0 {
						pred = a
					}
				}
				sum += RelativeError(actual, pred)
				cnt++
			}
		}
		if cnt == 0 {
			out[i] = math.NaN()
			continue
		}
		out[i] = sum / float64(cnt)
	}
}

// rttBatchPool holds the per-shard RTT gather buffers of NodeErrorsShard
// (see the comment there).
var rttBatchPool = sync.Pool{New: func() any { return new([64]float64) }}

// Mean returns the mean of the non-NaN values.
func Mean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if !math.IsNaN(x) {
			sum += x
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// MedianExactInto returns the exact sample median — for even n the average
// of the two middle order statistics, unlike the nearest-rank Percentile,
// which returns a single element — using quickselect over a caller-provided
// scratch buffer (used only if cap(buf) ≥ len(xs); no allocation once the
// buffer is warm). xs itself is never mutated and is not NaN-filtered;
// callers with possible NaNs use the nearest-rank family. Empty input
// returns NaN.
//
// The even-n average reads the same two elements a sort-then-index median
// reads and combines them with the same expression, so results are
// bit-identical to the classic sort-based implementation — which is what
// lets nps's security filter switch to this O(n) path without changing a
// single filtering decision.
func MedianExactInto(xs []float64, buf []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	tmp := append(buf[:0], xs...)
	if n%2 == 1 {
		return quickselect(tmp, n/2)
	}
	hi := quickselect(tmp, n/2)
	// quickselect leaves tmp[:n/2] holding the n/2 smallest values (all
	// ≤ tmp[n/2]), so the lower middle is their maximum.
	lo := tmp[0]
	for _, v := range tmp[1 : n/2] {
		if v > lo {
			lo = v
		}
	}
	return (lo + hi) / 2
}

// Percentile returns the p-quantile (0≤p≤1) of the non-NaN values using
// nearest-rank (round half-up) on the ordered data: the one-rank
// convenience form of Quantiles.
func Percentile(xs []float64, p float64) float64 {
	var out [1]float64
	return Quantiles(xs, []float64{p}, out[:], nil)[0]
}

// Quantiles fills out[i] with the ps[i]-quantile (0≤p≤1, nearest-rank,
// round half-up) of the non-NaN values and returns out. xs itself is never
// mutated: the NaN filter is paid once into buf (grown only if
// cap(buf) < len(xs), so a warm buffer means no allocation); each quantile
// is then one quickselect over the clean copy — expected O(n), no sort,
// and quickselect's partial reorder changes the order, never the set, so
// later quantiles stay correct. For the serving layer's p50/p99 pairs over
// millions of latencies this is one copy instead of one per quantile.
func Quantiles(xs []float64, ps []float64, out []float64, buf []float64) []float64 {
	clean := buf[:0]
	for _, x := range xs {
		if !math.IsNaN(x) {
			clean = append(clean, x)
		}
	}
	for len(out) < len(ps) {
		out = append(out, 0)
	}
	out = out[:len(ps)]
	for i, p := range ps {
		if len(clean) == 0 {
			out[i] = math.NaN()
			continue
		}
		out[i] = quickselect(clean, nearestRank(p, len(clean)))
	}
	return out
}

// nearestRank maps a quantile to an index in [0, n): round(p·(n−1)),
// rounding half-up. Flooring here (the old behaviour) biased P90/P99 low
// on small samples — e.g. P90 of 5 values picked index 3 instead of 4.
func nearestRank(p float64, n int) int {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return n - 1
	}
	idx := int(math.Floor(p*float64(n-1) + 0.5))
	if idx > n-1 {
		idx = n - 1
	}
	return idx
}

// quickselect returns the k-th smallest element of a (0-based), partially
// reordering a in place. Median-of-three pivoting keeps it deterministic
// and robust on sorted and constant inputs.
func quickselect(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		// Median-of-three pivot, moved to a[lo].
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		a[lo], a[mid] = a[mid], a[lo]
		pivot := a[lo]

		i, j := lo, hi+1
		for {
			for {
				i++
				if i > hi || a[i] >= pivot {
					break
				}
			}
			for {
				j--
				if a[j] <= pivot {
					break
				}
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
		}
		a[lo], a[j] = a[j], a[lo]
		switch {
		case j == k:
			return a[j]
		case j > k:
			hi = j - 1
		default:
			lo = j + 1
		}
	}
	return a[k]
}

// Ratio is the paper's relative error ratio: error / errorRef. Values
// above 1 indicate degradation versus the clean system.
func Ratio(err, errRef float64) float64 {
	if errRef <= 0 {
		return math.NaN()
	}
	return err / errRef
}

// CDF is an empirical cumulative distribution over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from the non-NaN values of xs.
func NewCDF(xs []float64) CDF {
	clean := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			clean = append(clean, x)
		}
	}
	sort.Float64s(clean)
	return CDF{sorted: clean}
}

// N returns the sample size.
func (c CDF) N() int { return len(c.sorted) }

// At returns P(X <= x).
func (c CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the value at cumulative fraction p. The sample is
// already sorted, so this is a direct nearest-rank index — no copying or
// re-sorting per call (Points(60) used to copy and sort 60 times).
func (c CDF) Quantile(p float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[nearestRank(p, len(c.sorted))]
}

// Points samples the CDF at n evenly spaced cumulative fractions,
// returning (value, fraction) pairs suitable for plotting a figure.
func (c CDF) Points(n int) [][2]float64 {
	if n < 2 || len(c.sorted) == 0 {
		return nil
	}
	pts := make([][2]float64, n)
	for i := 0; i < n; i++ {
		p := float64(i) / float64(n-1)
		pts[i] = [2]float64{c.Quantile(p), p}
	}
	return pts
}

// RandomBaseline computes the average relative error of the paper's
// worst-case scenario: every node chooses its coordinate uniformly at
// random with components in [-scale, scale] (§5.1, scale 50000).
func RandomBaseline(m latency.Substrate, space coordspace.Space, peers [][]int, scale float64, seed int64) float64 {
	rng := randx.NewDerived(seed, "randombaseline", 0)
	st := coordspace.NewStore(space, m.Size())
	for i := 0; i < st.Len(); i++ {
		st.RandomAt(i, rng, scale)
	}
	errs := make([]float64, st.Len())
	NodeErrorsShard(m, st, peers, nil, nil, 0, st.Len(), errs)
	return Mean(errs)
}

// ConvergenceDetector implements §5.2's stabilization rule: the system has
// converged once the tracked value has varied by at most Window across the
// last Ticks observations.
type ConvergenceDetector struct {
	Window float64 // max allowed variation (paper: 0.02)
	Ticks  int     // number of consecutive observations (paper: 10)
	recent []float64
}

// NewConvergenceDetector returns a detector with the paper's parameters.
func NewConvergenceDetector() *ConvergenceDetector {
	return &ConvergenceDetector{Window: 0.02, Ticks: 10}
}

// Observe records a value and reports whether the convergence criterion is
// now satisfied.
func (d *ConvergenceDetector) Observe(v float64) bool {
	d.recent = append(d.recent, v)
	if len(d.recent) > d.Ticks {
		d.recent = d.recent[len(d.recent)-d.Ticks:]
	}
	return d.Converged()
}

// Converged reports whether the last Ticks observations vary by at most
// Window.
func (d *ConvergenceDetector) Converged() bool {
	if len(d.recent) < d.Ticks {
		return false
	}
	lo, hi := d.recent[0], d.recent[0]
	for _, v := range d.recent[1:] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return hi-lo <= d.Window
}

// Reset clears the observation history.
func (d *ConvergenceDetector) Reset() { d.recent = d.recent[:0] }

// Series is a time series of (tick, value) observations.
type Series struct {
	Name   string
	Ticks  []int
	Values []float64
}

// Add appends an observation.
func (s *Series) Add(tick int, v float64) {
	s.Ticks = append(s.Ticks, tick)
	s.Values = append(s.Values, v)
}

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.Ticks) }

// Last returns the most recent value, or NaN if empty.
func (s *Series) Last() float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	return s.Values[len(s.Values)-1]
}

// TailMean returns the mean of the last k observations (fewer if the series
// is shorter). Experiments use it as the "long after the attack" value.
func (s *Series) TailMean(k int) float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	if k > len(s.Values) {
		k = len(s.Values)
	}
	return Mean(s.Values[len(s.Values)-k:])
}
