package vivaldi_test

// The Tap ownership contract, tested from outside the package so the real
// attack taps (internal/core imports vivaldi) can be installed: a tapped
// tick allocates nothing, what a tap returns is copied per prober, hostile
// output is refused without a panic, and what a tap is shown is the
// tick-start snapshot.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/coordspace"
	"repro/internal/core"
	"repro/internal/latency"
	"repro/internal/randx"
	"repro/internal/vivaldi"
)

var testSpaces = []coordspace.Space{coordspace.Euclidean(2), coordspace.EuclideanHeight(2)}

// TestStepParallelAttackedAllocs is the fourth allocation guard of the
// tick (the other three are in parallel_alloc_test.go): with 30 % of the
// nodes running a real attack, a warm tick must not touch the heap. The
// warm-up lets every colluder's destinations be agreed and every
// frog-boiler take its first-contact copy.
func TestStepParallelAttackedAllocs(t *testing.T) {
	const n, target, seed = 200, 0, 7
	m := latency.GenerateKingLike(latency.DefaultKingLike(n), 5)
	for _, space := range testSpaces {
		disorder := func(_ *core.Conspiracy, id int) vivaldi.Tap { return core.NewVivaldiDisorder(id, seed) }
		repulsion := func(_ *core.Conspiracy, id int) vivaldi.Tap {
			return core.NewVivaldiRepulsion(id, space, 50000, nil, seed)
		}
		repel := func(c *core.Conspiracy, id int) vivaldi.Tap { return core.NewVivaldiColludeRepel(id, c) }
		lure := func(c *core.Conspiracy, id int) vivaldi.Tap { return core.NewVivaldiColludeLure(id, c, space) }
		frog := func(_ *core.Conspiracy, id int) vivaldi.Tap { return core.NewVivaldiFrogBoil(id, space, seed) }
		// A kind is the tap constructors its attackers are split evenly
		// between (one for the pure attacks, three for §5.3.4's combined).
		kinds := map[string][]func(*core.Conspiracy, int) vivaldi.Tap{
			"disorder": {disorder}, "repulsion": {repulsion}, "collude-repel": {repel},
			"collude-lure": {lure}, "frog-boil": {frog}, "combined": {disorder, repulsion, repel},
		}
		for kind, mk := range kinds {
			t.Run(space.Name()+"/"+kind, func(t *testing.T) {
				sys := vivaldi.NewSystem(m, vivaldi.Config{Space: space}, 11)
				sh := vivaldi.ShardedInline{}
				for i := 0; i < 10; i++ {
					sys.StepParallel(sh)
				}
				mal := core.SelectMalicious(n, 0.3, func(i int) bool { return i == target }, seed)
				c := core.NewConspiracy(target, space, 50000, 40000, seed)
				for g, ids := range core.SplitEvenly(mal, len(mk)) {
					for _, id := range ids {
						sys.SetTap(id, mk[g](c, id))
					}
				}
				// Warm until every honest node has met a colluder (a
				// destination is agreed, and allocated, at first contact).
				for i := 0; i < 200; i++ {
					sys.StepParallel(sh)
				}
				if allocs := testing.AllocsPerRun(20, func() { sys.StepParallel(sh) }); allocs != 0 {
					t.Fatalf("attacked StepParallel tick allocates %.1f times, want 0", allocs)
				}
			})
		}
	}
}

// scriptedTap answers every prober with a coordinate that depends on who
// asks and when. With shared set it rewrites one buffer on every call, as
// the contract allows; otherwise every answer is a fresh slice.
type scriptedTap struct {
	shared  bool
	buf     []float64
	tick    int
	inTick  int // consultations in the current tick
	maxTick int // most consultations seen in one tick
}

func (a *scriptedTap) Respond(prober int, honest vivaldi.ProbeResponse, view vivaldi.View) vivaldi.ProbeResponse {
	if view.Tick() != a.tick {
		a.tick, a.inTick = view.Tick(), 0
	}
	a.inTick++
	a.maxTick = max(a.maxTick, a.inTick)
	v := a.buf
	if !a.shared {
		v = make([]float64, len(a.buf))
	}
	for k := range v {
		v[k] = float64(100*(prober+1)) - float64(view.Tick()*(k+1))
	}
	return vivaldi.ProbeResponse{Coord: coordspace.Coord{V: v, H: honest.Coord.H}, Error: 0.5, RTT: honest.RTT + 20}
}

// TestTapOutputIsCopiedPerProber: one tap instance answers several probers
// in the same tick out of one rewritten buffer; each prober must apply the
// value it was told, not the last one written. The reference is the same
// tap handing out fresh slices.
func TestTapOutputIsCopiedPerProber(t *testing.T) {
	const n = 12
	m := latency.GenerateKingLike(latency.DefaultKingLike(n), 3)
	for _, space := range testSpaces {
		run := func(shared bool) (*vivaldi.System, *scriptedTap) {
			sys := vivaldi.NewSystem(m, vivaldi.Config{Space: space}, 9)
			tap := &scriptedTap{shared: shared, buf: make([]float64, space.Dims)}
			for id := 0; id < n/2; id++ {
				sys.SetTap(id, tap) // one instance: its buffer is hit by many probers per tick
			}
			for i := 0; i < 50; i++ {
				sys.StepParallel(vivaldi.ShardedInline{})
			}
			return sys, tap
		}
		got, tap := run(true)
		want, _ := run(false)
		if tap.maxTick < 3 {
			t.Fatalf("%s: at most %d probers consulted the tap in one tick; the test needs 3", space.Name(), tap.maxTick)
		}
		for i := 0; i < n; i++ {
			a, b := got.Store().ViewAt(i), want.Store().ViewAt(i)
			if !sameCoord(a, b) || got.LocalError(i) != want.LocalError(i) {
				t.Fatalf("%s: node %d ended at %v (err %v) with a shared tap buffer, %v (err %v) with fresh slices",
					space.Name(), i, a, got.LocalError(i), b, want.LocalError(i))
			}
		}
	}
}

// hostileTap reports a fixed, malformed coordinate.
type hostileTap struct {
	coord coordspace.Coord
	calls int
}

func (a *hostileTap) Respond(prober int, honest vivaldi.ProbeResponse, view vivaldi.View) vivaldi.ProbeResponse {
	a.calls++
	return vivaldi.ProbeResponse{Coord: a.coord, Error: 0.5, RTT: honest.RTT + 10}
}

// TestHostileTapOutput: a forged coordinate of the wrong shape or with
// non-finite or absurd components must neither panic (the forged buffer's
// SetCoordAt would, on a dimension mismatch) nor move the prober, on the
// tick path and on Probe.
func TestHostileTapOutput(t *testing.T) {
	const n, attacker, victim = 10, 0, 1
	m := latency.GenerateKingLike(latency.DefaultKingLike(n), 2)
	nan, inf := math.NaN(), math.Inf(1)
	for _, space := range testSpaces {
		hostile := map[string]coordspace.Coord{
			"nil":    {},
			"short":  {V: make([]float64, space.Dims-1)},
			"long":   {V: make([]float64, space.Dims+1)},
			"nan":    {V: []float64{nan, 1}},
			"+inf":   {V: []float64{1, inf}},
			"-inf":   {V: []float64{-inf, 1}},
			"1e308":  {V: []float64{1e308, -1e308}},
			"nan-ht": {V: []float64{1, 1}, H: nan},
		}
		for name, c := range hostile {
			t.Run(space.Name()+"/"+name, func(t *testing.T) {
				sys := vivaldi.NewSystem(m, vivaldi.Config{Space: space}, 4)
				sys.Run(20)
				tap := &hostileTap{coord: c}
				sys.SetTap(attacker, tap)
				// Sever the victim from everyone but the attacker: every
				// sample it could apply from here on is the hostile one.
				side, rest := make([]bool, n), make([]bool, n)
				side[victim] = true
				for i := range rest {
					rest[i] = i != victim && i != attacker
				}
				sys.ApplyPartition(side, rest)
				before, errBefore := sys.Coord(victim), sys.LocalError(victim)
				for i := 0; i < 40; i++ {
					sys.StepParallel(vivaldi.ShardedInline{})
				}
				if tap.calls == 0 {
					t.Fatal("the hostile tap was never consulted")
				}
				after := sys.Coord(victim)
				if !sameCoord(before, after) || sys.LocalError(victim) != errBefore {
					t.Fatalf("victim moved on a hostile sample: %v (err %v) -> %v (err %v)",
						before, errBefore, after, sys.LocalError(victim))
				}
				if got := sys.Probe(victim, attacker); len(got.Coord.V) != len(c.V) {
					t.Fatalf("Probe reshaped the hostile coordinate: %d components, tap said %d", len(got.Coord.V), len(c.V))
				}
			})
		}
	}
}

// snapshotTap checks, on every consultation, that the view it is handed is
// the tick-start state, then delegates to the wrapped tap (if any) and
// keeps a copy of what that answered.
type snapshotTap struct {
	t      *testing.T
	owner  int
	start  *[]coordspace.Coord // the population when the current tick began
	inner  vivaldi.Tap
	said   []coordspace.Coord // copies of inner's answers
	drifts []float64          // RTT inflation of each answer
}

func sameCoord(a, b coordspace.Coord) bool {
	return fmt.Sprintf("%x %x", a.V, a.H) == fmt.Sprintf("%x %x", b.V, b.H)
}

func (a *snapshotTap) Respond(prober int, honest vivaldi.ProbeResponse, view vivaldi.View) vivaldi.ProbeResponse {
	checkSnapshot(a.t, "tap", view, *a.start)
	if !sameCoord(honest.Coord, (*a.start)[a.owner]) {
		a.t.Errorf("tick %d: honest.Coord %v is not the owner's tick-start coordinate %v", view.Tick(), honest.Coord, (*a.start)[a.owner])
	}
	if a.inner == nil {
		return honest
	}
	resp := a.inner.Respond(prober, honest, view)
	a.said = append(a.said, resp.Coord.Clone())
	a.drifts = append(a.drifts, resp.RTT-honest.RTT)
	return resp
}

func checkSnapshot(t *testing.T, who string, view vivaldi.View, start []coordspace.Coord) {
	for k := 0; k < view.Size(); k++ {
		if got := view.Coord(k); !sameCoord(got, start[k]) {
			t.Errorf("tick %d: %s sees node %d at %v, tick-start was %v", view.Tick(), who, k, got, start[k])
		}
	}
}

// TestViewsAreSnapshots: view.Coord is a view, not a copy, so it must be a
// view of the right thing — the tick-start snapshot — both in phase 3
// (taps) and in phase 4 (sample guards), where nodes earlier in the shard
// have already moved in the live store. And because views expire, a tap
// that keeps one must have copied it: frog-boil's lies stay on the line
// through its first-contact coordinate when the live store is rewritten
// under it.
func TestViewsAreSnapshots(t *testing.T) {
	const n = 40
	m := latency.GenerateKingLike(latency.DefaultKingLike(n), 6)
	for _, space := range testSpaces {
		var start []coordspace.Coord
		guarded := 0
		cfg := vivaldi.Config{Space: space, SampleGuard: func(node int, resp vivaldi.ProbeResponse, view vivaldi.View) (vivaldi.ProbeResponse, bool) {
			guarded++
			checkSnapshot(t, "guard", view, start)
			return resp, true
		}}
		sys := vivaldi.NewSystem(m, cfg, 8)
		plain := &snapshotTap{t: t, owner: 3, start: &start}
		frog := &snapshotTap{t: t, owner: 5, start: &start, inner: core.NewVivaldiFrogBoil(5, space, 1)}
		sys.SetTap(plain.owner, plain)
		sys.SetTap(frog.owner, frog)
		for tick := 0; tick < 120; tick++ {
			if len(frog.said) >= 2 {
				// The tapped node does not move itself, so only an outside
				// write can show whether the tap kept a view or a copy.
				far := space.Random(randx.New(int64(tick)), 1e6)
				sys.Store().SetCoordAt(frog.owner, far)
			}
			start = sys.Coords()
			sys.StepParallel(vivaldi.ShardedInline{})
		}
		if guarded == 0 || len(frog.said) < 4 {
			t.Fatalf("%s: %d guarded samples, %d frog-boil answers; the test needs both", space.Name(), guarded, len(frog.said))
		}
		// said[k] = frozen + drift[k]·u for one frozen and one u.
		s0, s1, d0, d1 := frog.said[0], frog.said[1], frog.drifts[0], frog.drifts[1]
		for k := 2; k < len(frog.said); k++ {
			f := (frog.drifts[k] - d0) / (d1 - d0)
			for i := range s0.V {
				want := s0.V[i] + f*(s1.V[i]-s0.V[i])
				if math.Abs(frog.said[k].V[i]-want) > 1e-6 {
					t.Fatalf("%s: frog-boil answer %d left its line: component %d is %v, want %v (first-contact copy lost)",
						space.Name(), k, i, frog.said[k].V[i], want)
				}
			}
		}
	}
}
