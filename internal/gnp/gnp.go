// Package gnp implements Global Network Positioning (Ng & Zhang, INFOCOM
// 2002): a fixed set of landmarks is embedded first by minimizing the error
// between measured and predicted pairwise distances, and every ordinary
// host then positions itself against the landmark coordinates.
//
// NPS (internal/nps) is the hierarchical generalization of this package;
// it reuses both the objective function and the per-host solve. GNP also
// serves as a standalone baseline in the experiments.
//
// The objective is GNP's sum of squared relative errors. The original code
// ran one joint Simplex Downhill over all landmark coordinates at once;
// this implementation uses coordinate-descent rounds of per-landmark
// Simplex solves, which minimizes the same objective with far better
// conditioning (see DESIGN.md §2).
package gnp

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/coordspace"
	"repro/internal/latency"
	"repro/internal/optimize"
	"repro/internal/randx"
)

// flatObjective is a host's positioning objective over k anchors: the sum
// over anchors of the squared error between the measured RTT and the
// distance predicted from position x, either relative — GNP's objective —
// or absolute in ms². The absolute form is what NPS host positioning uses
// (see nps.Config): under it, a constraint with a hugely inflated measured
// RTT exerts a pull proportional to its absolute misfit, which is exactly
// the lever the paper's delay-based attacks exploit and the reason NPS
// needs a probe threshold at all.
//
// The anchor coordinates live in one flat buffer of k rows × space.Dims
// floats, and the struct implements optimize.Objective, so re-aiming it at
// new data is two slice assignments rather than a closure allocation.
// Heights are ignored — flat positioning is defined for height-less spaces
// only (the entry points enforce this), where Space.Dist never reads
// Coord.H.
type flatObjective struct {
	space    coordspace.Space
	anchors  []float64 // k rows of space.Dims floats
	rtts     []float64 // k measured RTTs; non-positive entries are skipped
	relative bool      // relative (GNP) vs absolute (NPS default) errors
}

// Eval implements optimize.Objective.
func (o *flatObjective) Eval(x []float64) float64 {
	c := coordspace.Coord{V: x}
	dims := o.space.Dims
	sum := 0.0
	for k, r := range o.rtts {
		if r <= 0 {
			continue
		}
		a := coordspace.Coord{V: o.anchors[k*dims : (k+1)*dims]}
		if o.relative {
			rel := (o.space.Dist(c, a) - r) / r
			sum += rel * rel
		} else {
			diff := o.space.Dist(c, a) - r
			sum += diff * diff
		}
	}
	return sum
}

// HostSolver is the reusable host-positioning kernel: it owns the simplex
// solver scratch, the start-point buffer and the flat objective, so a warm
// HostSolver positions a host with zero heap allocations. Not safe for
// concurrent use — NPS keeps one per shard.
type HostSolver struct {
	simplex optimize.Solver
	x0      []float64
	obj     flatObjective
}

// Position solves for a host position against k anchors stored as k
// consecutive rows of space.Dims floats in anchors, under the absolute
// objective (relative=false, the NPS default) or GNP's relative one.
// start is the previous estimate (the space origin for a fresh host); a
// small random jitter drawn from rng desynchronizes restarts, and maxIter
// caps the Simplex iterations. It returns the new coordinate and the
// residual objective value. The returned coordinate aliases solver
// scratch: it is valid until the next Position call, and callers that
// retain it must copy it out. Height-less spaces only.
func (hs *HostSolver) Position(space coordspace.Space, anchors []float64, rtts []float64, relative bool, start coordspace.Coord, rng *rand.Rand, maxIter int) (coordspace.Coord, float64) {
	if space.HasHeight {
		panic("gnp: flat host positioning is defined for height-less spaces only")
	}
	if len(anchors) != len(rtts)*space.Dims {
		panic("gnp: anchors and rtts length mismatch")
	}
	if cap(hs.x0) < space.Dims {
		hs.x0 = make([]float64, space.Dims)
	}
	x0 := hs.x0[:space.Dims]
	// Zero-fill past a short start vector so buffer reuse cannot leak a
	// previous start point.
	for i := copy(x0, start.V); i < len(x0); i++ {
		x0[i] = 0
	}
	for i := range x0 {
		x0[i] += rng.NormFloat64() * 0.5
	}
	hs.obj = flatObjective{space: space, anchors: anchors, rtts: rtts, relative: relative}
	res := hs.simplex.Minimize(&hs.obj, x0, optimize.Options{
		MaxIter:  maxIter,
		InitStep: 25,
	})
	return coordspace.Coord{V: res.X}, res.F
}

// SelectLandmarks picks k "well separated" landmarks from the matrix by
// greedy max-min RTT (k-center): the first landmark is the node with the
// largest median RTT footprint, each subsequent one maximizes the minimum
// RTT to the landmarks chosen so far. This mirrors the paper's requirement
// of 20 well separated permanent landmarks (§5.2).
// Rows are gathered with the substrate's batched RTTFrom into reused
// buffers — per-element RTT interface calls made the footprint pass O(n²)
// dispatches, which is what kept NPS construction from reaching the 25k
// model-substrate populations. The summation order matches the old
// per-element loop exactly, so the selected landmark set is unchanged.
func SelectLandmarks(m latency.Substrate, k int) []int {
	n := m.Size()
	if k > n {
		panic("gnp: more landmarks than nodes")
	}
	if n > LandmarkCandidateCap {
		return SelectLandmarksFrom(m, k, landmarkCandidates(n))
	}
	all := make([]int, n)
	for j := range all {
		all[j] = j
	}
	return SelectLandmarksFrom(m, k, all)
}

// LandmarkCandidateCap bounds the candidate pool the greedy max-min
// selection evaluates. At or below the cap selection is exact over the
// whole population — identical to all previous releases, so existing
// figure outputs are unchanged. Above it, the footprint and separation
// passes run on a deterministic sample of the population: the footprint
// pass is quadratic in the pool size, and at 25k model-substrate nodes
// the exact form's 625M on-demand RTT evaluations were 87% of NPS
// construction time (BENCH_engine.json, PR 6). The same
// exact-below/sampled-above threshold pattern governs Vivaldi's spring
// selection (see vivaldi's neighborScanLimit).
const LandmarkCandidateCap = 4096

// landmarkCandidates returns the deterministic candidate pool for an
// n-node population: a seeded uniform sample, a pure function of n alone
// (landmark selection has never consumed experiment randomness, and
// keeping it seed-independent preserves that property).
func landmarkCandidates(n int) []int {
	rng := randx.New(randx.DeriveSeed(int64(n), "gnp-landmark-candidates", 0))
	cand := randx.Sample(rng, n, LandmarkCandidateCap)
	sort.Ints(cand)
	return cand
}

// SelectLandmarksFrom is SelectLandmarks restricted to a candidate pool:
// the footprint argmax and the max-min separation are evaluated over the
// candidates only. With the full population as candidates it is the exact
// historical algorithm, bit for bit.
func SelectLandmarksFrom(m latency.Substrate, k int, candidates []int) []int {
	if k > len(candidates) {
		panic("gnp: more landmarks than candidates")
	}
	nc := len(candidates)
	row := make([]float64, nc)
	// Start from the candidate with the largest total RTT footprint over
	// the pool (an extreme point).
	first, best := 0, -1.0
	for i := 0; i < nc; i++ {
		m.RTTFrom(candidates[i], candidates, row)
		sum := 0.0
		for _, d := range row {
			sum += d
		}
		if sum > best {
			best, first = sum, i
		}
	}
	chosen := make([]int, 0, k)
	chosen = append(chosen, candidates[first])
	inChosen := make([]bool, nc)
	inChosen[first] = true
	minDist := make([]float64, nc)
	m.RTTFrom(candidates[first], candidates, minDist)
	for len(chosen) < k {
		next, far := -1, -1.0
		for j := 0; j < nc; j++ {
			if minDist[j] > far && !inChosen[j] {
				far, next = minDist[j], j
			}
		}
		chosen = append(chosen, candidates[next])
		inChosen[next] = true
		m.RTTFrom(candidates[next], candidates, row)
		for j, d := range row {
			if d < minDist[j] {
				minDist[j] = d
			}
		}
	}
	return chosen
}

// SolveLandmarks embeds the landmark set: rounds of coordinate descent in
// which each landmark repositions itself against the others' current
// coordinates and the measured landmark-landmark RTTs. Several random
// restarts are attempted and the lowest-objective embedding wins. Returns
// one coordinate per entry of landmarkIDs. Height-less spaces only.
func SolveLandmarks(m latency.Substrate, landmarkIDs []int, space coordspace.Space, seed int64) []coordspace.Coord {
	if space.HasHeight {
		panic("gnp: flat host positioning is defined for height-less spaces only")
	}
	const restarts = 8
	// "Good enough" residual: a numerically perfect embedding of k points.
	perfect := 1e-8 * float64(len(landmarkIDs)*len(landmarkIDs))
	var best []coordspace.Coord
	bestObj := math.Inf(1)
	// One solver serves every per-landmark solve of every restart — the
	// coordinate-descent inner loop runs thousands of small Simplex solves,
	// and the shared scratch removes their per-call allocations.
	var sv optimize.Solver
	for r := 0; r < restarts; r++ {
		coords, obj := solveLandmarksOnce(m, landmarkIDs, space, &sv, randx.DeriveSeed(seed, "gnp-landmarks", r))
		if obj < bestObj {
			best, bestObj = coords, obj
		}
		if bestObj < perfect {
			break
		}
	}
	return best
}

func solveLandmarksOnce(m latency.Substrate, landmarkIDs []int, space coordspace.Space, sv *optimize.Solver, seed int64) ([]coordspace.Coord, float64) {
	rng := randx.New(seed)
	k := len(landmarkIDs)
	coords := make([]coordspace.Coord, k)
	// Random small initial placement breaks symmetry.
	for i := range coords {
		coords[i] = space.Random(rng, 50)
	}
	dims := space.Dims
	obj := flatObjective{
		space:    space,
		anchors:  make([]float64, (k-1)*dims),
		rtts:     make([]float64, k-1),
		relative: true,
	}

	total := func() float64 {
		sum := 0.0
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				meas := m.RTT(landmarkIDs[i], landmarkIDs[j])
				if meas <= 0 {
					continue
				}
				rel := (space.Dist(coords[i], coords[j]) - meas) / meas
				sum += rel * rel
			}
		}
		return sum
	}

	const maxRounds = 40
	prev := math.Inf(1)
	for r := 0; r < maxRounds; r++ {
		for i := 0; i < k; i++ {
			idx := 0
			for j := 0; j < k; j++ {
				if j == i {
					continue
				}
				copy(obj.anchors[idx*dims:(idx+1)*dims], coords[j].V)
				obj.rtts[idx] = m.RTT(landmarkIDs[i], landmarkIDs[j])
				idx++
			}
			res := sv.Minimize(&obj, coords[i].V, optimize.Options{
				MaxIter:  200 * space.Dims,
				InitStep: 25,
			})
			// res.X aliases solver scratch; copy it into the landmark's
			// own backing (same values the old fresh-slice path produced).
			copy(coords[i].V, res.X)
		}
		if obj := total(); prev-obj < 1e-10 {
			return coords, obj
		} else {
			prev = obj
		}
	}
	return coords, prev
}

// FitError returns the §3.1 fitting error of a host position against one
// anchor: |dist(pos, anchor) − measured| / measured. NPS's security filter
// is built on this quantity.
func FitError(space coordspace.Space, pos, anchor coordspace.Coord, measured float64) float64 {
	if measured <= 0 {
		return math.Inf(1)
	}
	return math.Abs(space.Dist(pos, anchor)-measured) / measured
}
