package core

import (
	"math"
	"testing"

	"repro/internal/coordspace"
	"repro/internal/latency"
	"repro/internal/metrics"
	"repro/internal/vivaldi"
)

func smallVivaldi(n int, seed int64) (*latency.Matrix, *vivaldi.System) {
	m := latency.GenerateKingLike(latency.DefaultKingLike(n), seed)
	return m, vivaldi.NewSystem(m, vivaldi.Config{}, seed+1)
}

// sampleOnly runs ticks during which victim's probes reach only attacker:
// a partition severs victim from every other node, so each tick victim
// either samples attacker or loses its probe.
func sampleOnly(s *vivaldi.System, victim, attacker, ticks int) {
	side := make([]bool, s.Size())
	rest := make([]bool, s.Size())
	side[victim] = true
	for i := range rest {
		rest[i] = i != victim && i != attacker
	}
	cut := s.ApplyPartition(side, rest)
	s.Run(ticks)
	s.HealPartition(cut)
}

func TestVivaldiDisorderResponse(t *testing.T) {
	_, s := smallVivaldi(20, 1)
	tap := NewVivaldiDisorder(3, 42)
	s.SetTap(3, tap)
	for trial := 0; trial < 50; trial++ {
		resp := s.Probe(0, 3)
		if resp.Error != 0.01 {
			t.Fatalf("error %v, want 0.01", resp.Error)
		}
		added := resp.RTT - s.TrueRTT(0, 3)
		if added < 100 || added > 1000 {
			t.Fatalf("delay %v outside [100,1000]", added)
		}
		if norm := s.Space().NormOf(resp.Coord); norm > tap.CoordScale*math.Sqrt(float64(s.Space().Dims))+1 {
			t.Fatalf("random coordinate norm %v beyond scale", norm)
		}
	}
	// Coordinates must change between solicitations (fresh randomness).
	a := s.Probe(0, 3).Coord
	b := s.Probe(0, 3).Coord
	if a.V[0] == b.V[0] && a.V[1] == b.V[1] {
		t.Fatal("disorder coordinate identical across probes")
	}
}

func TestRepulsionLandsVictimOnTarget(t *testing.T) {
	// A single victim repeatedly sampling only the attacker must end up at
	// (or very near) Xtarget: the mirror-lie construction in action.
	m := latency.NewMatrix(2)
	m.Set(0, 1, 20)
	s := vivaldi.NewSystem(m, vivaldi.Config{}, 3)
	s.Run(20) // some initial movement
	tap := NewVivaldiRepulsion(1, s.Space(), 50000, nil, 5)
	s.SetTap(1, tap)
	s.Run(200) // the attacker is the victim's only spring
	victim := s.Coord(0)
	distToTarget := s.Space().Dist(victim, tap.Target)
	if distToTarget > s.Space().NormOf(tap.Target)*0.05 {
		t.Fatalf("victim %.0f from target after repulsion (target norm %.0f)",
			distToTarget, s.Space().NormOf(tap.Target))
	}
}

func TestRepulsionTargetIsFarOut(t *testing.T) {
	space := coordspace.Euclidean(2)
	for owner := 0; owner < 20; owner++ {
		tap := NewVivaldiRepulsion(owner, space, 50000, nil, 9)
		if space.NormOf(tap.Target) < 25000 {
			t.Fatalf("owner %d target norm %v below scale/2", owner, space.NormOf(tap.Target))
		}
	}
}

func TestRepulsionDelaysOnly(t *testing.T) {
	_, s := smallVivaldi(10, 2)
	s.Run(100)
	s.SetTap(1, NewVivaldiRepulsion(1, s.Space(), 50000, nil, 5))
	resp := s.Probe(0, 1)
	if resp.RTT < s.TrueRTT(0, 1) {
		t.Fatal("repulsion shortened the RTT")
	}
}

func TestRepulsionSubsetHonestToOthers(t *testing.T) {
	_, s := smallVivaldi(10, 3)
	s.Run(50)
	victims := map[int]bool{2: true}
	s.SetTap(1, NewVivaldiRepulsion(1, s.Space(), 50000, victims, 5))
	honest := s.Probe(0, 1) // node 0 is not a victim
	if honest.RTT != s.TrueRTT(0, 1) {
		t.Fatal("non-victim got delayed")
	}
	if s.Space().NormOf(honest.Coord) > 10000 {
		t.Fatal("non-victim got forged coordinate")
	}
	forged := s.Probe(2, 1)
	if forged.RTT <= s.TrueRTT(2, 1) {
		t.Fatal("victim not attacked")
	}
}

func TestConspiracyDestinationsConsistent(t *testing.T) {
	_, s := smallVivaldi(12, 4)
	s.Run(100)
	c := NewConspiracy(0, s.Space(), 5000, 40000, 7)
	d1 := c.DestinationFor(3, s)
	d2 := c.DestinationFor(3, s)
	for i := range d1.V {
		if d1.V[i] != d2.V[i] {
			t.Fatal("destination changed between calls")
		}
	}
	// Destination is PushRadius away from the target's position.
	dist := s.Space().Dist(d1, s.Coord(0))
	if math.Abs(dist-5000) > 1 {
		t.Fatalf("destination %v from target, want 5000", dist)
	}
}

func TestColludeRepelSparesTarget(t *testing.T) {
	_, s := smallVivaldi(12, 5)
	s.Run(100)
	c := NewConspiracy(0, s.Space(), 5000, 40000, 7)
	s.SetTap(4, NewVivaldiColludeRepel(4, c))
	resp := s.Probe(0, 4) // the designated target probes the attacker
	if resp.RTT != s.TrueRTT(0, 4) {
		t.Fatal("target got attacked by strategy 1")
	}
	victim := s.Probe(2, 4)
	if victim.RTT <= s.TrueRTT(2, 4) && victim.Error != 0.01 {
		t.Fatal("victim not attacked")
	}
}

func TestColludeRepelMovesVictimsAwayFromTarget(t *testing.T) {
	_, s := smallVivaldi(12, 6)
	s.Run(300)
	c := NewConspiracy(0, s.Space(), 5000, 40000, 7)
	s.SetTap(4, NewVivaldiColludeRepel(4, c))
	before := s.Space().Dist(s.Coord(2), s.Coord(0))
	sampleOnly(s, 2, 4, 1100) // ~100 samples of the attacker
	after := s.Space().Dist(s.Coord(2), s.Coord(0))
	if after < before*10 {
		t.Fatalf("victim only moved from %v to %v away from target", before, after)
	}
}

func TestColludeLureMovesTargetIntoCluster(t *testing.T) {
	_, s := smallVivaldi(12, 7)
	s.Run(300)
	c := NewConspiracy(2, s.Space(), 5000, 40000, 9)
	s.SetTap(5, NewVivaldiColludeLure(5, c, s.Space()))
	sampleOnly(s, 2, 5, 1650) // ~150 samples of the attacker
	distToCluster := s.Space().Dist(s.Coord(2), c.ClusterCenter)
	if distToCluster > s.Space().NormOf(c.ClusterCenter)*0.1 {
		t.Fatalf("lured target still %v from cluster", distToCluster)
	}
}

func TestColludeLureTellsOthersClusterStory(t *testing.T) {
	_, s := smallVivaldi(12, 8)
	s.Run(100)
	c := NewConspiracy(2, s.Space(), 5000, 40000, 9)
	tap := NewVivaldiColludeLure(5, c, s.Space())
	s.SetTap(5, tap)
	resp := s.Probe(7, 5) // not the target
	if s.Space().Dist(resp.Coord, c.ClusterCenter) > c.ClusterRadius*3 {
		t.Fatal("non-target not told the cluster story")
	}
	// Consistency: the claimed RTT must be at least the claimed distance.
	claimedDist := s.Space().Dist(s.Coord(7), resp.Coord)
	if resp.RTT < claimedDist*0.999 {
		t.Fatalf("cluster story inconsistent: rtt %v < claimed dist %v", resp.RTT, claimedDist)
	}
}

func TestInjectedDisorderDegradesSystem(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	m, s := smallVivaldi(150, 9)
	peers := metrics.PeerSets(m.Size(), 0, 1)
	s.Run(1500)
	cleanErr := metrics.Mean(metrics.NodeErrors(m, s.Space(), s.Coords(), peers, nil))

	mal := SelectMalicious(m.Size(), 0.5, nil, 77)
	malSet := MemberSet(mal)
	for _, id := range mal {
		s.SetTap(id, NewVivaldiDisorder(id, 77))
	}
	s.Run(1500)
	honest := func(i int) bool { return !malSet[i] }
	attacked := metrics.Mean(metrics.NodeErrors(m, s.Space(), s.Coords(), peers, honest))
	if ratio := attacked / cleanErr; ratio < 3 {
		t.Fatalf("50%% disorder: ratio %.2f (clean %.3f, attacked %.3f), want >= 3",
			ratio, cleanErr, attacked)
	}
}

func TestInjectedColludingWorseThanRandomAtHighFraction(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	m, s := smallVivaldi(150, 10)
	peers := metrics.PeerSets(m.Size(), 0, 1)
	s.Run(1500)

	c := NewConspiracy(0, s.Space(), 50000, 40000, 3)
	mal := SelectMalicious(m.Size(), 0.5, func(i int) bool { return i == 0 }, 78)
	malSet := MemberSet(mal)
	for _, id := range mal {
		s.SetTap(id, NewVivaldiColludeRepel(id, c))
	}
	s.Run(1500)
	honest := func(i int) bool { return !malSet[i] && i != 0 }
	attacked := metrics.Mean(metrics.NodeErrors(m, s.Space(), s.Coords(), peers, honest))
	random := metrics.RandomBaseline(m, s.Space(), peers, 50000, 5)
	// §5.3.3: from 30% colluders the system becomes comparable to or worse
	// than random; at 50% it must be at least a large fraction of it.
	if attacked < random/50 {
		t.Fatalf("colluding at 50%%: error %.1f nowhere near random baseline %.1f", attacked, random)
	}
}
