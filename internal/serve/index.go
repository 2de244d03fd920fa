package serve

import (
	"math"

	"repro/internal/coordspace"
)

// The spatial index: a uniform grid over the first two Euclidean
// dimensions of the flat buffer, sized to ~2 nodes per cell. NearestK
// expands Chebyshev cell rings around the query node and prunes with a
// lower bound on the full-space distance: for any candidate in ring r,
//
//	dist ≥ (r-1)·cell + h_query + minHeight
//
// because the full Euclidean norm dominates its 2-D projection, the
// projection to a ring-r cell is at least (r-1) whole cells, and heights
// (when the space has them) only add. The bound is what turns an O(n)
// scan into a few-ring walk at 50k nodes; the linear scan below remains
// as the correctness oracle and paired benchmark baseline, and both paths
// share one candidate heap with a (dist, id) total order, so they return
// bit-identical results — ties always break toward the lower id.
//
// The grid's box is not the bounding box: the paper's repulsion attacks
// park a few nodes ~50 000 ms out, and a bounding-box grid then holds every
// honest node in one cell. Per axis the box is the bounding interval cut to
// Tukey's fences [q1 − c·IQR, q3 + c·IQR], quartiles read off a strided
// sample of ≤ fenceSample nodes (no allocation, no RNG: the index stays a
// pure function of the store); IQR == 0 keeps the bounding interval.
// c = 1.5 read better than 3 on every serve metric of the benchmark (a
// tighter box is finer cells over the dense core). Nodes outside the box
// clamp into its border cells, and the bound survives: clamping a cell
// index is monotone and 1-Lipschitz, so two nodes whose clamped indices
// differ by r on an axis have exact indices at least r apart and lie more
// than (r-1)·cell apart on it. A hostile store costs speed, never answers:
// ~25 % of the nodes can sit at the exile radius on one side of an axis
// before a fence moves out to them; past that the index degrades toward the
// linear scan's cost. A query from an out-of-box node walks the whole grid.

const (
	targetPerCell = 2 // mean occupancy the build aims for
	fenceSample   = 64
	fenceC        = 1.5
	// pruneSlack shrinks the cell length the bound uses by more than
	// cellOf's rounding of (x−min)·invCell can shift a node (4·2⁻⁵³·side cells).
	pruneSlack = 1 - 1e-9
)

type gridIndex struct {
	minX, minY float64
	cell       float64 // cell side length as the prune bound uses it
	invCell    float64 // 1/cell, 0 on a degenerate (single-cell) grid
	w, h       int
	clamped    int     // nodes outside the box, bucketed in border cells
	start      []int32 // w·h+1 prefix offsets into ids
	ids        []int32 // node ids bucketed by cell, ascending within a cell
}

// fences cuts [lo, hi], the bounding interval of data[off+i·stride], to
// Tukey's fences around the quartiles of an insertion-sorted sample.
func fences(data []float64, off, stride, n int, lo, hi float64) (float64, float64) {
	var s [fenceSample]float64
	m := 0
	for i := 0; i < n; i += (n + fenceSample - 1) / fenceSample {
		v := data[i*stride+off]
		j := m
		for ; j > 0 && s[j-1] > v; j-- {
			s[j] = s[j-1]
		}
		s[j] = v
		m++
	}
	q1, q3 := s[m/4], s[3*m/4]
	if iqr := q3 - q1; iqr > 0 {
		lo, hi = max(lo, q1-fenceC*iqr), min(hi, q3+fenceC*iqr)
	}
	return lo, hi
}

// buildGrid indexes the store, reusing counts as the counting-sort scratch
// (grown as needed and returned). The start/ids arrays are freshly
// allocated: they belong to the immutable snapshot.
func buildGrid(st *coordspace.Store, counts []int32) (gridIndex, []int32) {
	n := st.Len()
	dims := st.Space().Dims
	data := st.Data()
	stride := st.Stride()

	g := gridIndex{w: 1, h: 1, cell: 1}
	if n == 0 {
		g.start = make([]int32, 2)
		return g, counts
	}

	xAt := func(i int) float64 { return data[i*stride] }
	yAt := func(i int) float64 {
		if dims < 2 {
			return 0
		}
		return data[i*stride+1]
	}

	// Plain comparisons, not math.Min/Max: a NaN never moves a bound and
	// later maps to cell 0 (axis); the kernels refuse such a store upstream.
	minX, maxX := xAt(0), xAt(0)
	minY, maxY := yAt(0), yAt(0)
	for i := 1; i < n; i++ {
		x, y := xAt(i), yAt(i)
		if x < minX {
			minX = x
		} else if x > maxX {
			maxX = x
		}
		if y < minY {
			minY = y
		} else if y > maxY {
			maxY = y
		}
	}
	minX, maxX = fences(data, 0, stride, n, minX, maxX)
	if dims >= 2 {
		minY, maxY = fences(data, 1, stride, n, minY, maxY)
	}
	g.minX, g.minY = minX, minY

	// side×side cells cover the larger extent; the smaller axis takes
	// however many cells it needs, so w·h ≤ (side+1)² ≈ n/targetPerCell.
	// An extent that overflows (±MaxFloat64) is capped: the far end clamps.
	side := int(math.Ceil(math.Sqrt(float64(n) / targetPerCell))) // ≥ 1
	cell := min(max(maxX-minX, maxY-minY), math.MaxFloat64) / float64(side)
	if inv := 1 / cell; cell > 0 && inv <= math.MaxFloat64 {
		g.cell, g.invCell = cell*pruneSlack, inv
		g.w = axis((maxX-minX)*inv, side+1) + 1
		g.h = axis((maxY-minY)*inv, side+1) + 1
	}
	// A degenerate box (everyone at one point, as in a genesis population,
	// or a spread so small that 1/cell overflows) keeps the single-cell
	// grid: every query scans the one cell, which is the linear scan.

	cells := g.w * g.h
	if cap(counts) < cells+1 {
		counts = make([]int32, cells+1)
	}
	counts = counts[:cells+1]
	clear(counts)
	for i := 0; i < n; i++ {
		x, y := xAt(i), yAt(i)
		counts[g.cellOf(x, y)]++
		if x < minX || x > maxX || y < minY || y > maxY {
			g.clamped++
		}
	}
	g.start = make([]int32, cells+1)
	var acc int32
	for c := 0; c < cells; c++ {
		g.start[c] = acc
		acc += counts[c]
		counts[c] = g.start[c] // reuse as the running write cursor
	}
	g.start[cells] = acc
	g.ids = make([]int32, n)
	for i := 0; i < n; i++ { // ascending i ⇒ ids ascend within each cell
		c := g.cellOf(xAt(i), yAt(i))
		g.ids[counts[c]] = int32(i)
		counts[c]++
	}
	return g, counts
}

// axis maps a scaled offset to a cell of an n-cell axis, clamping in float:
// int(1e39) is MinInt64 on amd64, the wrong border. NaN maps to cell 0.
func axis(f float64, n int) int {
	if f >= float64(n) {
		return n - 1
	}
	if f > 0 {
		return int(f)
	}
	return 0
}

// cellOf maps a point to its cell index; a point outside the box lands in
// the nearest border cell.
func (g *gridIndex) cellOf(x, y float64) int {
	return axis((y-g.minY)*g.invCell, g.h)*g.w + axis((x-g.minX)*g.invCell, g.w)
}

// Scratch is the caller-owned query scratch in the DistMany/Quantiles
// style: one per reader goroutine, reused across queries. The zero value
// is ready; buffers grow on first use and the steady state allocates
// nothing.
type Scratch struct {
	heapID   []int32
	heapDist []float64
}

func (sc *Scratch) ensure(k int) {
	if cap(sc.heapID) < k {
		sc.heapID = make([]int32, k)
		sc.heapDist = make([]float64, k)
	}
	sc.heapID = sc.heapID[:k]
	sc.heapDist = sc.heapDist[:k]
}

// heapWorse reports whether candidate 1 is a strictly worse answer than
// candidate 2: further, or equally far with a higher id. This is the one
// total order both query paths share.
func heapWorse(d1 float64, id1 int32, d2 float64, id2 int32) bool {
	if d1 != d2 {
		return d1 > d2
	}
	return id1 > id2
}

// heapPush offers (d, id) to the k-worst-at-root heap of size cnt,
// returning the new size.
func heapPush(ids []int32, ds []float64, cnt, k int, id int32, d float64) int {
	if cnt < k {
		ids[cnt], ds[cnt] = id, d
		for i := cnt; i > 0; {
			p := (i - 1) / 2
			if !heapWorse(ds[i], ids[i], ds[p], ids[p]) {
				break
			}
			ds[i], ds[p] = ds[p], ds[i]
			ids[i], ids[p] = ids[p], ids[i]
			i = p
		}
		return cnt + 1
	}
	if !heapWorse(ds[0], ids[0], d, id) {
		return cnt // candidate no better than the current worst
	}
	ids[0], ds[0] = id, d
	heapSiftDown(ids, ds, cnt, 0)
	return cnt
}

func heapSiftDown(ids []int32, ds []float64, cnt, i int) {
	for {
		worst, l, r := i, 2*i+1, 2*i+2
		if l < cnt && heapWorse(ds[l], ids[l], ds[worst], ids[worst]) {
			worst = l
		}
		if r < cnt && heapWorse(ds[r], ids[r], ds[worst], ids[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		ds[i], ds[worst] = ds[worst], ds[i]
		ids[i], ids[worst] = ids[worst], ids[i]
		i = worst
	}
}

// drain empties the heap into out in ascending (dist, id) order.
func drain(ids []int32, ds []float64, cnt int, out []Neighbor) []Neighbor {
	for len(out) < cnt {
		out = append(out, Neighbor{})
	}
	out = out[:cnt]
	for cnt > 0 {
		out[cnt-1] = Neighbor{ID: ids[0], Dist: ds[0]}
		cnt--
		ids[0], ds[0] = ids[cnt], ds[cnt]
		heapSiftDown(ids, ds, cnt, 0)
	}
	return out
}

// NearestK returns the k nearest nodes to node by served distance
// (coordinate distance in this snapshot), ascending, ties broken by lower
// id, self excluded. k is clamped to the population. Results are appended
// into out[:0]; with a warm Scratch and cap(out) ≥ k the query path
// allocates nothing.
func (s *Snapshot) NearestK(node, k int, sc *Scratch, out []Neighbor) []Neighbor {
	out = out[:0]
	n := s.store.Len()
	if k > n-1 {
		k = n - 1
	}
	if k <= 0 || node < 0 || node >= n {
		return out
	}
	sc.ensure(k)
	hID, hD := sc.heapID, sc.heapDist
	cnt := 0

	st := s.store
	g := &s.grid
	data := st.Data()
	stride := st.Stride()
	x := data[node*stride]
	y := 0.0
	if st.Space().Dims >= 2 {
		y = data[node*stride+1]
	}
	// Height floor for the prune bound: any candidate's served distance
	// includes its own height (≥ MinHeight) plus the query node's.
	lbBase := 0.0
	if sp := st.Space(); sp.HasHeight {
		lbBase = st.HeightAt(node) + sp.MinHeight
	}

	cx := axis((x-g.minX)*g.invCell, g.w)
	cy := axis((y-g.minY)*g.invCell, g.h)

	scanCell := func(ix, iy int) {
		c := iy*g.w + ix
		for t := g.start[c]; t < g.start[c+1]; t++ {
			j := g.ids[t]
			if int(j) == node {
				continue
			}
			cnt = heapPush(hID, hD, cnt, k, j, st.Dist(node, int(j)))
		}
	}

	rMax := cx
	if v := g.w - 1 - cx; v > rMax {
		rMax = v
	}
	if cy > rMax {
		rMax = cy
	}
	if v := g.h - 1 - cy; v > rMax {
		rMax = v
	}
	for r := 0; r <= rMax; r++ {
		if cnt == k {
			lb := lbBase
			if r >= 2 {
				p := float64(r-1) * g.cell
				lb += math.Sqrt(p * p) // p, unless p² underflows as Dist's squares do
			}
			if lb > hD[0] {
				break // no unscanned candidate can beat the current k-th
			}
		}
		if r == 0 {
			scanCell(cx, cy)
			continue
		}
		yTop, yBot := cy-r, cy+r
		xLo, xHi := cx-r, cx+r
		for ix := max(xLo, 0); ix <= min(xHi, g.w-1); ix++ {
			if yTop >= 0 {
				scanCell(ix, yTop)
			}
			if yBot < g.h {
				scanCell(ix, yBot)
			}
		}
		for iy := max(yTop+1, 0); iy <= min(yBot-1, g.h-1); iy++ {
			if xLo >= 0 {
				scanCell(xLo, iy)
			}
			if xHi < g.w {
				scanCell(xHi, iy)
			}
		}
	}
	return drain(hID, hD, cnt, out)
}

// NearestKLinear is the O(n) correctness oracle: the same query answered
// by scanning every node through the same candidate heap. Kept as the
// paired benchmark baseline for the spatial index.
func (s *Snapshot) NearestKLinear(node, k int, sc *Scratch, out []Neighbor) []Neighbor {
	out = out[:0]
	n := s.store.Len()
	if k > n-1 {
		k = n - 1
	}
	if k <= 0 || node < 0 || node >= n {
		return out
	}
	sc.ensure(k)
	hID, hD := sc.heapID, sc.heapDist
	cnt := 0
	for j := 0; j < n; j++ {
		if j == node {
			continue
		}
		cnt = heapPush(hID, hD, cnt, k, int32(j), s.store.Dist(node, j))
	}
	return drain(hID, hD, cnt, out)
}
