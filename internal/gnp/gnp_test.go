package gnp

import (
	"math"
	"testing"

	"repro/internal/coordspace"
	"repro/internal/latency"
	"repro/internal/metrics"
	"repro/internal/randx"
)

// planarMatrix builds a matrix from exact 2-D positions, so a 2-D embedding
// can in principle be perfect.
func planarMatrix(pts [][2]float64) *latency.Matrix {
	m := latency.NewMatrix(len(pts))
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			m.Set(i, j, math.Hypot(pts[i][0]-pts[j][0], pts[i][1]-pts[j][1]))
		}
	}
	return m
}

// flatRows lays anchor coordinates out the way HostSolver takes them: one
// row of space.Dims floats per anchor.
func flatRows(anchors []coordspace.Coord) []float64 {
	var rows []float64
	for _, a := range anchors {
		rows = append(rows, a.V...)
	}
	return rows
}

func TestObjectiveZeroAtTruth(t *testing.T) {
	space := coordspace.Euclidean(2)
	anchors := []coordspace.Coord{
		{V: []float64{0, 0}}, {V: []float64{100, 0}}, {V: []float64{0, 100}},
	}
	truth := []float64{50, 50}
	rtts := make([]float64, len(anchors))
	for i, a := range anchors {
		rtts[i] = space.Dist(coordspace.Coord{V: truth}, a)
	}
	for _, relative := range []bool{true, false} {
		f := flatObjective{space: space, anchors: flatRows(anchors), rtts: rtts, relative: relative}
		if v := f.Eval(truth); v > 1e-18 {
			t.Fatalf("relative=%v: objective at truth %v", relative, v)
		}
		if v := f.Eval([]float64{80, 80}); v <= 0 {
			t.Fatalf("relative=%v: objective away from truth %v", relative, v)
		}
	}
}

func TestObjectiveSkipsBadRTT(t *testing.T) {
	space := coordspace.Euclidean(2)
	for _, relative := range []bool{true, false} {
		f := flatObjective{space: space, anchors: []float64{0, 0, 10, 0}, rtts: []float64{0, 10}, relative: relative}
		if v := f.Eval([]float64{5, 0}); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("relative=%v: objective with zero rtt = %v", relative, v)
		}
	}
}

// squareAnchors is a planted positioning problem: four anchors on a square
// and the exact distances from truth to each.
func squareAnchors(space coordspace.Space, truth coordspace.Coord) (rows, rtts []float64) {
	anchors := []coordspace.Coord{
		{V: []float64{0, 0}}, {V: []float64{100, 0}},
		{V: []float64{0, 100}}, {V: []float64{100, 100}},
	}
	rtts = make([]float64, len(anchors))
	for i, a := range anchors {
		rtts[i] = space.Dist(truth, a)
	}
	return flatRows(anchors), rtts
}

func TestPositionHostRecoversPoint(t *testing.T) {
	space := coordspace.Euclidean(2)
	truth := coordspace.Coord{V: []float64{30, 70}}
	rows, rtts := squareAnchors(space, truth)
	for _, relative := range []bool{true, false} {
		var hs HostSolver
		got, fit := hs.Position(space, rows, rtts, relative, space.Zero(), randx.New(1), 200*space.Dims)
		if space.Dist(got, truth) > 1 {
			t.Fatalf("relative=%v: recovered %v, want %v", relative, got, truth)
		}
		if fit > 1e-4 {
			t.Fatalf("relative=%v: residual %v", relative, fit)
		}
	}
}

func TestPositionHostMismatchedInputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var hs HostSolver
	space := coordspace.Euclidean(2)
	hs.Position(space, make([]float64, 3*space.Dims), make([]float64, 2), true, space.Zero(), randx.New(1), 100)
}

func TestHostSolverHeightSpacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var hs HostSolver
	space := coordspace.EuclideanHeight(2)
	hs.Position(space, make([]float64, 3*space.Dims), make([]float64, 3), true, space.Zero(), randx.New(1), 100)
}

// TestHostSolverWarmReusePurity: scratch reuse must not leak state between
// positionings. A warm solver's answer — after an unrelated solve in
// another dimensionality and from a short start vector — is bit-identical
// to a fresh solver's.
func TestHostSolverWarmReusePurity(t *testing.T) {
	space := coordspace.Euclidean(2)
	rows, rtts := squareAnchors(space, coordspace.Coord{V: []float64{30, 70}})
	start := coordspace.Coord{V: []float64{12}} // short: dim 1 is zero-filled
	var fresh, warm HostSolver
	want, wantFit := fresh.Position(space, rows, rtts, false, start, randx.New(4), 400)

	wide := coordspace.Euclidean(5)
	warm.Position(wide, make([]float64, 6*wide.Dims), []float64{5, 9, 2, 7, 3, 8}, true,
		coordspace.Coord{V: []float64{40, -3, 8, 1, 99}}, randx.New(9), 50)
	got, gotFit := warm.Position(space, rows, rtts, false, start, randx.New(4), 400)
	if gotFit != wantFit || got.V[0] != want.V[0] || got.V[1] != want.V[1] {
		t.Fatalf("warm solver %v (fit %v) differs from fresh %v (fit %v)", got, gotFit, want, wantFit)
	}
}

func TestSelectLandmarksSpread(t *testing.T) {
	m := latency.GenerateKingLike(latency.DefaultKingLike(200), 3)
	lms := SelectLandmarks(m, 20)
	if len(lms) != 20 {
		t.Fatalf("selected %d landmarks", len(lms))
	}
	seen := map[int]bool{}
	for _, l := range lms {
		if seen[l] {
			t.Fatalf("duplicate landmark %d", l)
		}
		seen[l] = true
	}
	// Landmarks must be more spread out than random nodes on average.
	var lmSum float64
	var lmPairs int
	for i := 0; i < len(lms); i++ {
		for j := i + 1; j < len(lms); j++ {
			lmSum += m.RTT(lms[i], lms[j])
			lmPairs++
		}
	}
	stats := m.Stats()
	if lmSum/float64(lmPairs) < stats.Mean {
		t.Fatalf("landmark mean spacing %.1f below population mean %.1f",
			lmSum/float64(lmPairs), stats.Mean)
	}
}

func TestSelectLandmarksPanicsTooMany(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SelectLandmarks(latency.NewMatrix(3), 4)
}

func TestSolveLandmarksPlanar(t *testing.T) {
	// Landmarks on a plane must embed with near-zero pairwise error.
	pts := [][2]float64{{0, 0}, {100, 0}, {0, 100}, {100, 100}, {50, 20}, {20, 80}}
	m := planarMatrix(pts)
	ids := []int{0, 1, 2, 3, 4, 5}
	space := coordspace.Euclidean(2)
	coords := SolveLandmarks(m, ids, space, 7)
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			meas := m.RTT(i, j)
			pred := space.Dist(coords[i], coords[j])
			if rel := math.Abs(pred-meas) / meas; rel > 0.05 {
				t.Fatalf("landmarks %d-%d rel err %v (pred %v meas %v)", i, j, rel, pred, meas)
			}
		}
	}
}

func TestEndToEndGNPKingLike(t *testing.T) {
	if testing.Short() {
		t.Skip("embedding run")
	}
	m := latency.GenerateKingLike(latency.DefaultKingLike(120), 9)
	space := coordspace.Euclidean(8)
	lmIDs := SelectLandmarks(m, 20)
	lmCoords := SolveLandmarks(m, lmIDs, space, 5)

	rng := randx.New(6)
	coords := make([]coordspace.Coord, m.Size())
	isLM := map[int]int{}
	for k, id := range lmIDs {
		isLM[id] = k
		coords[id] = lmCoords[k]
	}
	var hs HostSolver
	lmRows := flatRows(lmCoords)
	rtts := make([]float64, len(lmIDs))
	for i := 0; i < m.Size(); i++ {
		if _, ok := isLM[i]; ok {
			continue
		}
		for k, id := range lmIDs {
			rtts[k] = m.RTT(i, id)
		}
		pos, _ := hs.Position(space, lmRows, rtts, true, space.Zero(), rng, 200*space.Dims)
		coords[i] = pos.Clone() // pos aliases solver scratch
	}
	peers := metrics.PeerSets(m.Size(), 0, 1)
	avg := metrics.Mean(metrics.NodeErrors(m, space, coords, peers, nil))
	if avg > 0.7 {
		t.Fatalf("GNP end-to-end avg rel error %v, want < 0.7", avg)
	}
}

func TestFitError(t *testing.T) {
	space := coordspace.Euclidean(2)
	pos := coordspace.Coord{V: []float64{0, 0}}
	anchor := coordspace.Coord{V: []float64{30, 40}}
	if got := FitError(space, pos, anchor, 100); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("fit error %v, want 0.5", got)
	}
	if got := FitError(space, pos, anchor, 50); got != 0 {
		t.Fatalf("fit error %v, want 0", got)
	}
	if got := FitError(space, pos, anchor, 0); !math.IsInf(got, 1) {
		t.Fatalf("fit error with zero measurement %v, want +Inf", got)
	}
}
