package engine

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/nps"
	"repro/internal/vivaldi"
)

// testScale keeps engine tests fast while exercising every moving part:
// repetitions, sharded ticks, measurement cadence.
var testScale = Scale{
	Name:                 "engine-test",
	Nodes:                70,
	Reps:                 2,
	Seed:                 3,
	VivaldiConvergeTicks: 250,
	VivaldiAttackTicks:   250,
	MeasureEvery:         50,
	NPSConvergeRounds:    2,
	NPSAttackRounds:      2,
	EvalPeers:            16,
	NPSSolveIterations:   120,
}

func timeSpec(system SystemKind, out OutputKind, series ...SeriesSpec) ScenarioSpec {
	return ScenarioSpec{
		Name: "test", Figure: "Test", Title: "test scenario",
		System: system, Output: out, Series: series,
	}
}

func run1(label string, r RunSpec) SeriesSpec {
	return SeriesSpec{Label: label, Runs: []RunSpec{r}}
}

func TestVivaldiCleanBaseline(t *testing.T) {
	sp := timeSpec(SystemVivaldi, OutRatioVsTime, run1("clean", RunSpec{}))
	res, err := RunScenario(sp, testScale, NewPool(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 {
		t.Fatalf("series %d", len(res.Series))
	}
	// Without attackers the ratio must hover around 1.
	for k, y := range res.Series[0].Y {
		if y < 0.5 || y > 2 {
			t.Fatalf("clean ratio[%d] = %v, want ~1", k, y)
		}
	}
}

func TestVivaldiDisorderDegrades(t *testing.T) {
	sp := timeSpec(SystemVivaldi, OutRatioVsTime,
		run1("50%", RunSpec{Frac: 0.5, Attack: AttackSpec{Kind: AttackDisorder}}))
	res, err := RunScenario(sp, testScale, NewPool(1))
	if err != nil {
		t.Fatal(err)
	}
	ys := res.Series[0].Y
	if last := ys[len(ys)-1]; last < 2 {
		t.Fatalf("50%% disorder ratio %v, want noticeable degradation", last)
	}
}

func TestNPSDisorderFiltering(t *testing.T) {
	sp := timeSpec(SystemNPS, OutFilterRatioVsX, SeriesSpec{
		Label: "20%",
		Runs:  []RunSpec{{Frac: 0.2, Attack: AttackSpec{Kind: AttackDisorder}, Security: true}},
	})
	res, err := RunScenario(sp, testScale, NewPool(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Series[0].Y[0]; got < 0.3 {
		t.Fatalf("filter precision %.2f against simple disorder", got)
	}
}

func TestNPSColludingVictims(t *testing.T) {
	sp := timeSpec(SystemNPS, OutFinalCDF, SeriesSpec{
		Label:  "victims",
		Select: SelectVictims,
		Runs:   []RunSpec{{Frac: 0.2, Attack: AttackSpec{Kind: AttackColludingIsolation}, Security: true}},
	})
	res, err := RunScenario(sp, testScale, NewPool(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series[0].Y) == 0 {
		t.Fatal("no victim errors collected")
	}
}

func TestSeriesShapeAndSampling(t *testing.T) {
	sp := timeSpec(SystemVivaldi, OutMeanVsTime, run1("x", RunSpec{Frac: 0.2, Attack: AttackSpec{Kind: AttackDisorder}}))
	res, err := RunScenario(sp, testScale, NewPool(1))
	if err != nil {
		t.Fatal(err)
	}
	want := testScale.VivaldiAttackTicks/testScale.MeasureEvery + 1
	s := res.Series[0]
	if len(s.X) != want || len(s.Y) != want {
		t.Fatalf("series length %d/%d, want %d", len(s.X), len(s.Y), want)
	}
	if s.X[0] != float64(testScale.VivaldiConvergeTicks) {
		t.Fatalf("first sample at tick %v", s.X[0])
	}
	for k, y := range s.Y {
		if math.IsNaN(y) {
			t.Fatalf("NaN at sample %d", k)
		}
	}
}

// TestRunDedup asserts that identical RunSpecs across series simulate
// once: two series over the same run produce identical curves (they read
// the same outcome).
func TestRunDedup(t *testing.T) {
	r := RunSpec{Frac: 0.3, Attack: AttackSpec{Kind: AttackDisorder}}
	sp := timeSpec(SystemVivaldi, OutMeanVsTime, run1("a", r), run1("b", r))
	res, err := RunScenario(sp, testScale, NewPool(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Series[0].Y, res.Series[1].Y) {
		t.Fatal("identical runs produced different series")
	}
}

func TestInvalidSpecsRejected(t *testing.T) {
	if err := (ScenarioSpec{Name: "x", System: "bogus", Series: []SeriesSpec{run1("a", RunSpec{})}}).Validate(); err == nil {
		t.Error("bogus system accepted")
	}
	if err := (ScenarioSpec{Name: "x", System: SystemVivaldi}).Validate(); err == nil {
		t.Error("empty series accepted")
	}
	two := SeriesSpec{Label: "a", Runs: []RunSpec{{}, {Frac: 0.1}}}
	if err := (ScenarioSpec{Name: "x", System: SystemVivaldi, Output: OutRatioVsTime, Series: []SeriesSpec{two}}).Validate(); err == nil {
		t.Error("multi-run time series accepted")
	}
	sp := timeSpec(SystemVivaldi, OutMeanVsTime, run1("a", RunSpec{Frac: 0.2, Attack: AttackSpec{Kind: AttackColludingIsolation}}))
	if _, err := RunScenario(sp, testScale, NewPool(1)); err == nil {
		t.Error("NPS-only attack on vivaldi accepted")
	}
}

// TestStepParallelMatchesAcrossSharders is the tick-level determinism
// contract: the same system stepped with Serial and with an 8-worker pool
// produces identical coordinates, including under attack taps — and the
// systems' own Step(), the inline one-shard form of the same kernel, is
// bit-identical to the pooled StepParallel too.
func TestStepParallelMatchesAcrossSharders(t *testing.T) {
	sc := testScale
	m := BaseMatrix(sc)

	build := func() CoordSystem {
		cs := NewVivaldiSharded(m, vivaldi.Config{}, 99, nil)
		mal := []int{3, 7, 11, 19}
		if _, err := cs.Inject(AttackSpec{Kind: AttackColludeRepel}, mal, 99); err != nil {
			t.Fatal(err)
		}
		return cs
	}
	a, b := build(), build()
	serial := Serial{}
	pool := NewPool(8)
	for tick := 0; tick < 60; tick++ {
		a.Step(serial)
		b.Step(pool)
	}
	if !reflect.DeepEqual(a.Store().Coords(), b.Store().Coords()) {
		t.Fatal("vivaldi parallel step diverges across sharders")
	}

	buildNPS := func() CoordSystem {
		cs := NewNPSSharded(m, nps.Config{Security: true, ProbeThresholdMS: 5000, SolveIterations: 120}, 7, Serial{})
		var mal []int
		for i := 0; i < cs.Size() && len(mal) < 8; i++ {
			if cs.EligibleAttacker(i) {
				mal = append(mal, i)
			}
		}
		if _, err := cs.Inject(AttackSpec{Kind: AttackDisorder}, mal, 7); err != nil {
			t.Fatal(err)
		}
		return cs
	}
	na, nb := buildNPS(), buildNPS()
	for round := 0; round < 3; round++ {
		na.Step(serial)
		nb.Step(pool)
	}
	if !reflect.DeepEqual(na.Store().Coords(), nb.Store().Coords()) {
		t.Fatal("nps parallel step diverges across sharders")
	}
	fa := npsDeployment(na).Stats()
	fb := npsDeployment(nb).Stats()
	if fa != fb {
		t.Fatalf("nps filter stats diverge: %+v vs %+v", fa, fb)
	}

	va, vb := vivaldi.NewSystem(m, vivaldi.Config{}, 42), vivaldi.NewSystem(m, vivaldi.Config{}, 42)
	for _, sys := range []*vivaldi.System{va, vb} {
		for _, id := range []int{1, 5, 9, 13, 21, 34} {
			sys.SetTap(id, core.NewVivaldiDisorder(id, 42))
		}
	}
	for tick := 0; tick < 60; tick++ {
		va.Step()
		vb.StepParallel(pool)
	}
	if dumpBits(va.Store(), localErrs(va.Size(), va.LocalError)) != dumpBits(vb.Store(), localErrs(vb.Size(), vb.LocalError)) {
		t.Fatal("vivaldi Step() diverges from pooled StepParallel")
	}

	npsCfg := nps.Config{Security: true, ProbeThresholdMS: 5000, SolveIterations: 120}
	sa, sb := nps.NewSystem(m, npsCfg, 7), nps.NewSystem(m, npsCfg, 7)
	for _, sys := range []*nps.System{sa, sb} {
		for _, id := range sys.NodesInLayer(1)[:4] {
			sys.SetTap(id, core.NewNPSDisorder(id, 7))
		}
	}
	for round := 0; round < 3; round++ {
		sa.Step()
		sb.StepParallel(pool)
	}
	if dumpBits(sa.Store(), nil) != dumpBits(sb.Store(), nil) {
		t.Fatal("nps Step() diverges from pooled StepParallel")
	}
	if sa.Stats() != sb.Stats() {
		t.Fatalf("nps Step() filter stats diverge: %+v vs %+v", sa.Stats(), sb.Stats())
	}
}

// TestMeasureSharded cross-checks the sharded measurement pass against the
// plain metrics implementation.
func TestMeasureSharded(t *testing.T) {
	m := BaseMatrix(testScale)
	cs := NewVivaldiSharded(m, vivaldi.Config{}, 5, nil)
	for i := 0; i < 50; i++ {
		cs.Step(Serial{})
	}
	peers := metrics.PeerSets(m.Size(), 8, 1)
	want := cs.Measure(peers, nil, Serial{}, nil)
	got := cs.Measure(peers, nil, NewPool(8), nil)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("sharded measurement diverges")
	}
	// The coordinate-slice boundary form loads a fresh store and must
	// agree bit for bit with the sweep over the live one.
	ref := metrics.NodeErrors(m, cs.Space(), cs.Store().Coords(), peers, nil)
	if !reflect.DeepEqual(want, ref) {
		t.Fatal("store-based measurement diverges from metrics.NodeErrors")
	}
	// And a caller-provided buffer must be filled in place and returned.
	buf := make([]float64, cs.Size())
	if out := cs.Measure(peers, nil, Serial{}, buf); &out[0] != &buf[0] || !reflect.DeepEqual(out, want) {
		t.Fatal("Measure did not reuse the provided buffer")
	}
}
