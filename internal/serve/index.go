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

// targetPerCell sizes the grid: mean occupancy the build aims for.
const targetPerCell = 2

type gridIndex struct {
	minX, minY float64
	cell       float64 // cell side length
	invCell    float64 // 1/cell, 0 on a degenerate (single-cell) grid
	w, h       int
	start      []int32 // w·h+1 prefix offsets into ids
	ids        []int32 // node ids bucketed by cell, ascending within a cell
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

	minX, maxX := xAt(0), xAt(0)
	minY, maxY := yAt(0), yAt(0)
	for i := 1; i < n; i++ {
		x, y := xAt(i), yAt(i)
		minX, maxX = math.Min(minX, x), math.Max(maxX, x)
		minY, maxY = math.Min(minY, y), math.Max(maxY, y)
	}
	g.minX, g.minY = minX, minY

	ext := math.Max(maxX-minX, maxY-minY)
	if ext > 0 {
		// side×side cells cover the larger extent; the smaller axis takes
		// however many cells it needs, so w·h ≤ (side+1)² ≈ n/targetPerCell.
		side := int(math.Ceil(math.Sqrt(float64(n) / targetPerCell)))
		if side < 1 {
			side = 1
		}
		g.cell = ext / float64(side)
		g.invCell = 1 / g.cell
		g.w = int((maxX-minX)*g.invCell) + 1
		g.h = int((maxY-minY)*g.invCell) + 1
	}
	// A degenerate bounding box (everyone at one point — e.g. a snapshot
	// of a genesis population) keeps the single-cell grid: every query
	// scans the one cell, which is exactly the linear scan.

	cells := g.w * g.h
	if cap(counts) < cells+1 {
		counts = make([]int32, cells+1)
	}
	counts = counts[:cells+1]
	for i := range counts {
		counts[i] = 0
	}
	for i := 0; i < n; i++ {
		counts[g.cellOf(xAt(i), yAt(i))]++
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

// cellOf maps a point to its cell index, clamped to the grid (rounding at
// the max edge, and any out-of-box future point, lands in a border cell).
func (g *gridIndex) cellOf(x, y float64) int {
	cx := int((x - g.minX) * g.invCell)
	cy := int((y - g.minY) * g.invCell)
	if cx < 0 {
		cx = 0
	} else if cx >= g.w {
		cx = g.w - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= g.h {
		cy = g.h - 1
	}
	return cy*g.w + cx
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

	cx := int((x - g.minX) * g.invCell)
	cy := int((y - g.minY) * g.invCell)
	if cx < 0 {
		cx = 0
	} else if cx >= g.w {
		cx = g.w - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= g.h {
		cy = g.h - 1
	}

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
				lb += float64(r-1) * g.cell
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
