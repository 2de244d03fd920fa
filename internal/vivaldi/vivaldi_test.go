package vivaldi

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/coordspace"
	"repro/internal/latency"
	"repro/internal/metrics"
	"repro/internal/randx"
)

func lineMatrix(pos []float64) *latency.Matrix {
	m := latency.NewMatrix(len(pos))
	for i := range pos {
		for j := i + 1; j < len(pos); j++ {
			m.Set(i, j, math.Abs(pos[i]-pos[j]))
		}
	}
	return m
}

func TestNodeUpdateMovesTowardCorrectDistance(t *testing.T) {
	cfg := Config{Space: coordspace.Euclidean(2)}
	n := NewNode(cfg, randx.New(1))
	remote := ProbeResponse{
		Coord: coordspace.Coord{V: []float64{100, 0}},
		Error: 1,
		RTT:   50,
	}
	// Estimated distance 100 > RTT 50: node must move toward the remote.
	n.Update(remote)
	if n.Coord().V[0] <= 0 {
		t.Fatalf("node did not move toward remote: %v", n.Coord())
	}
	d := cfg.Space.Dist(n.Coord(), remote.Coord)
	if d >= 100 {
		t.Fatalf("distance did not shrink: %v", d)
	}
}

func TestNodeUpdateIgnoresGarbage(t *testing.T) {
	cfg := Config{Space: coordspace.Euclidean(2)}
	n := NewNode(cfg, randx.New(2))
	before := n.Coord()
	n.Update(ProbeResponse{Coord: coordspace.Coord{V: []float64{1, 1}}, Error: 0.5, RTT: 0})
	n.Update(ProbeResponse{Coord: coordspace.Coord{V: []float64{1}}, Error: 0.5, RTT: 10})
	n.Update(ProbeResponse{Coord: coordspace.Coord{V: []float64{math.NaN(), 0}}, Error: 0.5, RTT: 10})
	n.Update(ProbeResponse{Coord: coordspace.Coord{V: []float64{1, 1}}, Error: math.NaN(), RTT: 10})
	after := n.Coord()
	if before.V[0] != after.V[0] || before.V[1] != after.V[1] {
		t.Fatalf("garbage sample moved node from %v to %v", before, after)
	}
}

func TestNodeErrorStaysClamped(t *testing.T) {
	cfg := Config{Space: coordspace.Euclidean(2)}.withDefaults()
	n := NewNode(cfg, randx.New(3))
	f := func(rtt, ex, ey, re float64) bool {
		resp := ProbeResponse{
			Coord: coordspace.Coord{V: []float64{ex, ey}},
			Error: math.Abs(re),
			RTT:   math.Abs(rtt),
		}
		n.Update(resp)
		return n.Error() >= cfg.MinError && n.Error() <= cfg.MaxError && n.Coord().IsValid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestConvergenceOnLine(t *testing.T) {
	// Five nodes on a line must embed with low error in 2-D.
	m := lineMatrix([]float64{0, 20, 50, 90, 140})
	s := NewSystem(m, Config{}, 7)
	s.Run(2000)
	peers := metrics.PeerSets(m.Size(), 0, 1)
	errs := metrics.NodeErrors(m, s.Space(), s.Coords(), peers, nil)
	if avg := metrics.Mean(errs); avg > 0.1 {
		t.Fatalf("line embedding error %v, want < 0.1", avg)
	}
}

func TestConvergenceKingLike(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence run")
	}
	m := latency.GenerateKingLike(latency.DefaultKingLike(120), 5)
	s := NewSystem(m, Config{}, 11)
	s.Run(2500)
	peers := metrics.PeerSets(m.Size(), 0, 1)
	avg := metrics.Mean(metrics.NodeErrors(m, s.Space(), s.Coords(), peers, nil))
	if avg > 0.8 {
		t.Fatalf("king-like embedding error %v, want < 0.8", avg)
	}
	// And it must beat the random baseline by a wide margin.
	base := metrics.RandomBaseline(m, s.Space(), peers, 50000, 1)
	if avg > base/10 {
		t.Fatalf("converged error %v not far below random baseline %v", avg, base)
	}
}

func TestHeightSpaceConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence run")
	}
	m := latency.GenerateKingLike(latency.DefaultKingLike(100), 6)
	s := NewSystem(m, Config{Space: coordspace.EuclideanHeight(2)}, 12)
	s.Run(2500)
	peers := metrics.PeerSets(m.Size(), 0, 1)
	avg := metrics.Mean(metrics.NodeErrors(m, s.Space(), s.Coords(), peers, nil))
	if avg > 0.8 {
		t.Fatalf("height-model embedding error %v", avg)
	}
}

// TestNeighborStructure checks the full-scan spring selection: full sets,
// no self-springs, no duplicates, some close springs. The Neighbors: 16
// case is the regression for a spring count below the default close quota
// of 32 — unclamped, the quota overshot the set size, the "set is full"
// check was stepped over and nodes collected up to n−1 springs.
func TestNeighborStructure(t *testing.T) {
	m := latency.GenerateKingLike(latency.DefaultKingLike(300), 8)
	for _, cfg := range []Config{{}, {Neighbors: 16}} {
		s := NewSystem(m, cfg, 9)
		cfg = s.Config()
		for i := 0; i < m.Size(); i++ {
			nbrs := s.Neighbors(i)
			if len(nbrs) != cfg.Neighbors {
				t.Fatalf("node %d has %d neighbours, want %d", i, len(nbrs), cfg.Neighbors)
			}
			seen := map[int]bool{}
			closeCount := 0
			for _, j := range nbrs {
				if j == i {
					t.Fatalf("node %d is its own neighbour", i)
				}
				if seen[j] {
					t.Fatalf("node %d has duplicate neighbour %d", i, j)
				}
				seen[j] = true
				if m.RTT(i, j) < cfg.CloseThreshold {
					closeCount++
				}
			}
			// The generator's clusters guarantee plenty of <50ms candidates;
			// at least some close neighbours must have been selected.
			if closeCount == 0 {
				t.Fatalf("node %d selected no close neighbours", i)
			}
		}
	}
}

// TestNeighborStructureSampled exercises the sampled spring selection
// used above neighborScanLimit, on the O(n) model backend: full spring
// sets, no self-springs, no duplicates, and a few close springs where
// the topology offers them. Includes a spring count below the default
// close quota (withDefaults clamps CloseNeighbors to Neighbors; an
// unclamped quota underflowed the far fill and panicked).
func TestNeighborStructureSampled(t *testing.T) {
	n := neighborScanLimit + 100
	mo := latency.NewKingLikeModel(latency.DefaultKingLike(n), 6)
	for _, cfg := range []Config{{}, {Neighbors: 16}} {
		cfg = cfg.withDefaults()
		s := NewSystem(mo, cfg, 9)
		someClose := 0
		for _, i := range []int{0, 1, 17, n/2 + 1, n - 1} {
			nbrs := s.Neighbors(i)
			if len(nbrs) != cfg.Neighbors {
				t.Fatalf("node %d has %d neighbours, want %d", i, len(nbrs), cfg.Neighbors)
			}
			seen := map[int]bool{}
			for _, j := range nbrs {
				if j == i {
					t.Fatalf("node %d is its own neighbour", i)
				}
				if seen[j] {
					t.Fatalf("node %d has duplicate neighbour %d", i, j)
				}
				seen[j] = true
				if mo.RTT(i, j) < cfg.CloseThreshold {
					someClose++
				}
			}
		}
		if someClose == 0 {
			t.Fatal("sampled selection found no close springs at all")
		}
	}
}

func TestNeighborsSmallSystem(t *testing.T) {
	m := lineMatrix([]float64{0, 10, 20, 30})
	s := NewSystem(m, Config{}, 1)
	for i := 0; i < 4; i++ {
		if len(s.Neighbors(i)) != 3 {
			t.Fatalf("small system node %d has %d neighbours", i, len(s.Neighbors(i)))
		}
	}
}

func TestDeterminism(t *testing.T) {
	m := latency.GenerateKingLike(latency.DefaultKingLike(60), 4)
	a := NewSystem(m, Config{}, 33)
	b := NewSystem(m, Config{}, 33)
	a.Run(200)
	b.Run(200)
	for i := 0; i < m.Size(); i++ {
		ca, cb := a.Coord(i), b.Coord(i)
		for d := range ca.V {
			if ca.V[d] != cb.V[d] {
				t.Fatalf("node %d diverged between identical runs", i)
			}
		}
	}
}

type fixedTap struct {
	coord coordspace.Coord
	err   float64
	extra float64
}

func (f fixedTap) Respond(prober int, honest ProbeResponse, view View) ProbeResponse {
	return ProbeResponse{Coord: f.coord, Error: f.err, RTT: honest.RTT + f.extra}
}

type shortenTap struct{}

func (shortenTap) Respond(prober int, honest ProbeResponse, view View) ProbeResponse {
	honest.RTT = honest.RTT / 2
	return honest
}

func TestTapInterception(t *testing.T) {
	m := lineMatrix([]float64{0, 10, 20})
	s := NewSystem(m, Config{}, 2)
	want := coordspace.Coord{V: []float64{500, 500}}
	s.SetTap(1, fixedTap{coord: want, err: 0.01, extra: 100})
	resp := s.Probe(0, 1)
	if resp.Coord.V[0] != 500 || resp.Error != 0.01 {
		t.Fatalf("tap response not applied: %+v", resp)
	}
	if resp.RTT != m.RTT(0, 1)+100 {
		t.Fatalf("tap delay not applied: %v", resp.RTT)
	}
}

func TestTapCannotShortenRTT(t *testing.T) {
	m := lineMatrix([]float64{0, 40})
	s := NewSystem(m, Config{}, 2)
	s.SetTap(1, shortenTap{})
	resp := s.Probe(0, 1)
	if resp.RTT < m.RTT(0, 1) {
		t.Fatalf("tap shortened RTT to %v below true %v", resp.RTT, m.RTT(0, 1))
	}
}

func TestMaliciousNodesDoNotMove(t *testing.T) {
	m := latency.GenerateKingLike(latency.DefaultKingLike(30), 3)
	s := NewSystem(m, Config{}, 5)
	s.Run(50)
	frozen := s.Coord(3)
	s.SetTap(3, fixedTap{coord: coordspace.Coord{V: []float64{1, 1}}, err: 0.01})
	s.Run(50)
	after := s.Coord(3)
	if frozen.V[0] != after.V[0] || frozen.V[1] != after.V[1] {
		t.Fatal("malicious node moved its own coordinate")
	}
	if !s.IsMalicious(3) || s.IsMalicious(4) {
		t.Fatal("IsMalicious bookkeeping wrong")
	}
	s.SetTap(3, nil)
	if s.IsMalicious(3) {
		t.Fatal("tap removal not applied")
	}
}

func TestViewInterface(t *testing.T) {
	m := lineMatrix([]float64{0, 10, 30})
	s := NewSystem(m, Config{}, 2)
	var v View = s
	if v.Size() != 3 {
		t.Fatal("view size")
	}
	if v.TrueRTT(0, 2) != 30 {
		t.Fatal("view rtt")
	}
	if v.Tick() != 0 {
		t.Fatal("view tick")
	}
	s.Step()
	if v.Tick() != 1 {
		t.Fatal("tick not counted")
	}
	if v.LocalError(0) <= 0 {
		t.Fatal("local error must stay positive")
	}
}

func TestDisorderStyleTapRaisesError(t *testing.T) {
	// A tap reporting random far coordinates with tiny error must degrade
	// the honest population's accuracy (smoke test for the attack path).
	if testing.Short() {
		t.Skip("attack smoke test")
	}
	m := latency.GenerateKingLike(latency.DefaultKingLike(80), 7)
	peers := metrics.PeerSets(m.Size(), 0, 1)

	clean := NewSystem(m, Config{}, 21)
	clean.Run(1500)
	cleanErr := metrics.Mean(metrics.NodeErrors(m, clean.Space(), clean.Coords(), peers, nil))

	attacked := NewSystem(m, Config{}, 21)
	attacked.Run(1500)
	rng := randx.New(55)
	malicious := map[int]bool{}
	for _, i := range randx.Sample(rng, m.Size(), m.Size()/2) {
		malicious[i] = true
		attacked.SetTap(i, fixedTap{
			coord: attacked.Space().Random(rng, 5000),
			err:   0.01,
			extra: 500,
		})
	}
	attacked.Run(1500)
	honest := func(i int) bool { return !malicious[i] }
	attackedErr := metrics.Mean(metrics.NodeErrors(m, attacked.Space(), attacked.Coords(), peers, honest))
	if attackedErr < cleanErr*2 {
		t.Fatalf("50%% liars: error %v vs clean %v — attack path ineffective", attackedErr, cleanErr)
	}
}

// TestCloneRefusesTapsAndCuts: Clone is defined at a clean barrier only —
// a tap's private state cannot be copied and a partition's masks belong to
// whoever applied it. After the tap is removed and the cut healed it
// works, and the two sides' partitions are then independent.
func TestCloneRefusesTapsAndCuts(t *testing.T) {
	m := latency.GenerateKingLike(latency.DefaultKingLike(40), 3)
	s := NewSystem(m, Config{}, 2)
	s.Run(5)
	mustPanic := func(what string) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("Clone with %s did not panic", what)
			}
		}()
		s.Clone()
	}
	s.SetTap(3, shortenTap{})
	mustPanic("a tap installed")
	s.SetTap(3, nil)

	half := make([]bool, 40)
	rest := make([]bool, 40)
	for i := range half {
		half[i], rest[i] = i < 20, i >= 20
	}
	id := s.ApplyPartition(half, rest)
	mustPanic("a partition active")
	s.HealPartition(id)

	c := s.Clone()
	c.ApplyPartition(half, rest)
	if len(s.cuts) != 0 {
		t.Fatal("a partition applied to the clone reached the original")
	}
	if c.Tick() != s.Tick() {
		t.Fatalf("clone tick %d, original %d", c.Tick(), s.Tick())
	}
}
