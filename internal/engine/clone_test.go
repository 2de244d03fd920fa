package engine

import (
	"math"
	"testing"
	"time"

	"repro/internal/coordspace"
	"repro/internal/latency"
	"repro/internal/metrics"
	"repro/internal/nps"
	"repro/internal/vivaldi"
)

// sameBits fails unless two float slices are bit-identical.
func sameBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: lengths %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: word %d differs: %v vs %v", what, i, a[i], b[i])
		}
	}
}

// sameSystem compares everything a fork must preserve: the store, the
// measured errors (which fold in Vivaldi's adjustment terms), Vivaldi's
// local error estimates and adjustments, NPS's filter counters.
func sameSystem(t *testing.T, what string, a, b CoordSystem, peers [][]int, pool *Pool) {
	t.Helper()
	sameBits(t, what+": store", a.Store().Data(), b.Store().Data())
	sameBits(t, what+": measured errors", a.Measure(peers, nil, pool, nil), b.Measure(peers, nil, pool, nil))
	if va, ok := a.(*vivaldiAdapter); ok {
		vb := b.(*vivaldiAdapter)
		sameBits(t, what+": error estimates", localErrs(a.Size(), va.sys.LocalError), localErrs(b.Size(), vb.sys.LocalError))
		sameBits(t, what+": adjustments", va.sys.Adjustments(), vb.sys.Adjustments())
		if va.sys.Tick() != vb.sys.Tick() {
			t.Fatalf("%s: ticks %d vs %d", what, va.sys.Tick(), vb.sys.Tick())
		}
	}
	if _, ok := a.(*npsAdapter); ok {
		if sa, sb := npsDeployment(a).Stats(), npsDeployment(b).Stats(); sa != sb {
			t.Fatalf("%s: filter stats %+v vs %+v", what, sa, sb)
		}
	}
}

// TestCloneIsFaithfulFork: run a for N ticks, fork b off it, install the
// same attack on both with the same seed and run M more on a wide pool —
// a, b and a never-forked system run N+M must agree bit for bit, and
// stepping b must not have touched a. Frog-boiling is the Vivaldi attack
// because its taps read the tick, which a fork must carry over; the
// hardened case covers the filter rings, adjustment terms and decay clock.
func TestCloneIsFaithfulFork(t *testing.T) {
	pool := NewPool(8)
	m := BaseSubstrate(Bench, latency.BackendDense, pool)
	peers := metrics.PeerSets(m.Size(), Bench.EvalPeers, 5)
	mal := []int{40, 44, 51, 58, 63, 70, 77, 85}
	viv := func(cfg vivaldi.Config) func() CoordSystem {
		return func() CoordSystem { return NewVivaldiSharded(m, cfg, 42, pool) }
	}
	cases := []struct {
		name   string
		build  func() CoordSystem
		attack AttackSpec
		n, m   int
	}{
		{"vivaldi-2d", viv(vivaldi.Config{}), AttackSpec{Kind: AttackFrogBoil}, 60, 60},
		{"vivaldi-5d", viv(vivaldi.Config{Space: coordspace.Euclidean(5)}), AttackSpec{Kind: AttackDisorder}, 60, 60},
		{"vivaldi-2d-height", viv(vivaldi.Config{Space: coordspace.EuclideanHeight(2)}), AttackSpec{Kind: AttackRepulsion}, 60, 60},
		{"vivaldi-hardened", viv(vivaldi.Config{Harden: fullStackHardening}), AttackSpec{Kind: AttackFrogBoil}, 250, 60},
		{"nps-secure-3-layer", func() CoordSystem {
			return NewNPSSharded(m, nps.Config{Security: true, Layers: 3, ProbeThresholdMS: npsProbeThresholdMS, SolveIterations: 120}, 42, pool)
		}, AttackSpec{Kind: AttackDisorder}, 2, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			steps := func(cs CoordSystem, k int) {
				for ; k > 0; k-- {
					cs.Step(pool)
				}
			}
			attack := func(cs CoordSystem) {
				var ids []int
				for _, id := range mal {
					if cs.EligibleAttacker(id) {
						ids = append(ids, id)
					}
				}
				if _, err := cs.Inject(c.attack, ids, 42); err != nil {
					t.Fatal(err)
				}
			}
			a, ref := c.build(), c.build()
			steps(a, c.n)
			b := a.Clone()
			sameSystem(t, "at the fork", a, b, peers, pool)

			atFork := append([]float64(nil), a.Store().Data()...)
			attack(b)
			steps(b, c.m)
			sameBits(t, "original after stepping the fork", a.Store().Data(), atFork)

			attack(a)
			steps(a, c.m)
			steps(ref, c.n)
			attack(ref)
			steps(ref, c.m)
			sameSystem(t, "fork vs original", a, b, peers, pool)
			sameSystem(t, "fork vs never-forked", ref, b, peers, pool)
		})
	}
}

// TestCloneRefusesTaps: an adapter with an attack installed cannot fork
// (taps carry private state), and the live backend does not fork at all.
func TestCloneRefusesTaps(t *testing.T) {
	pool := NewPool(1)
	m := BaseSubstrate(Bench, latency.BackendDense, pool)
	for _, cs := range []CoordSystem{
		NewVivaldiSharded(m, vivaldi.Config{}, 1, pool),
		NewNPSSharded(m, nps.Config{SolveIterations: 50}, 1, pool),
	} {
		var ids []int
		for i := 0; len(ids) < 3; i++ {
			if cs.EligibleAttacker(i) {
				ids = append(ids, i)
			}
		}
		if _, err := cs.Inject(AttackSpec{Kind: AttackDisorder}, ids, 1); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T: Clone with taps installed did not panic", cs)
				}
			}()
			cs.Clone()
		}()
	}
	if c := NewLiveNet(m, vivaldi.Config{}, 1, pool, LiveNetConfig{}).Clone(); c != nil {
		t.Errorf("live backend Clone = %v, want nil", c)
	}
}

// TestZeroMeasureEveryRejected: a hand-built Scale leaves MeasureEvery 0;
// the sampling loop then never advanced and RunScenario never returned.
func TestZeroMeasureEveryRejected(t *testing.T) {
	sc := Bench
	sc.MeasureEvery = 0
	done := make(chan error, 1)
	go func() {
		_, err := RunScenario(timeSpec(SystemVivaldi, OutRatioVsTime, run1("clean", RunSpec{})), sc, NewPool(1))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("RunScenario accepted MeasureEvery = 0")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("RunScenario with MeasureEvery = 0 did not return")
	}
	for _, bad := range []func(*Scale){
		func(s *Scale) { s.Nodes = 1 },
		func(s *Scale) { s.Reps = -1 },
		func(s *Scale) { s.VivaldiAttackTicks = -1 },
		func(s *Scale) { s.NPSConvergeRounds = -1 },
	} {
		s := Bench
		bad(&s)
		if s.Validate() == nil {
			t.Errorf("Validate accepted %+v", s)
		}
	}
	for _, s := range []Scale{Bench, Quick, Standard, Full} {
		if err := s.Validate(); err != nil {
			t.Errorf("preset %s: %v", s.Name, err)
		}
	}
}
