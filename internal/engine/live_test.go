package engine

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/vivaldi"
	"repro/internal/wire"
)

// liveScale keeps live-backend tests fast: the virtual clock makes the
// runs instant in wall time, the small population keeps the event queue
// short.
var liveScale = Scale{
	Name:                 "live-test",
	Nodes:                64,
	Reps:                 1,
	Seed:                 11,
	VivaldiConvergeTicks: 300,
	VivaldiAttackTicks:   300,
	MeasureEvery:         60,
	EvalPeers:            16,
}

// fig09Style is the paper's Figure 9 workload (colluding isolation,
// strategy 1, error ratio over time) plus a disorder series, at one
// malicious fraction each.
func fig09Style(backend ExecBackend) ScenarioSpec {
	return ScenarioSpec{
		Name: "livecmp", Figure: "Figure 9 (comparison)", Title: "live vs memory",
		System: SystemVivaldi, Output: OutRatioVsTime,
		Series: []SeriesSpec{
			{Label: "disorder 30%", Runs: []RunSpec{{
				Frac: 0.30, Attack: AttackSpec{Kind: AttackDisorder}, Backend: backend,
			}}},
			{Label: "collude 30%", Runs: []RunSpec{{
				Frac: 0.30, Attack: AttackSpec{Kind: AttackColludeRepel}, ExcludeTarget: true, Backend: backend,
			}}},
		},
	}
}

// TestLiveMatchesMemoryFig09 is the backend-equivalence contract the
// ROADMAP item asks for: the fig09-style degradation curves produced over
// live virtual-UDP message exchange match the in-memory engine within
// tolerance at the same seed.
//
// Tolerances reflect what genuinely transfers between the two execution
// models. Disorder lies (100–1000 ms delays) are fully realizable on the
// wire, so the live curve tracks the in-memory one closely. The colluding
// attack claims RTTs of tens of virtual seconds, which the live path
// realizes as actual response delays: its effect therefore arrives one
// sample late (the forged replies are still in flight at the first
// barrier) and, once landed, is compared in order of magnitude — both
// backends must agree the system is destroyed, not merely degraded.
func TestLiveMatchesMemoryFig09(t *testing.T) {
	pool := NewPool(4)
	mem, err := RunScenario(fig09Style(BackendMemory), liveScale, pool)
	if err != nil {
		t.Fatal(err)
	}
	live, err := RunScenario(fig09Style(BackendLive), liveScale, pool)
	if err != nil {
		t.Fatal(err)
	}

	// Disorder: sample-wise agreement within 35%.
	md, ld := mem.Series[0], live.Series[0]
	if len(md.Y) != len(ld.Y) || len(md.Y) == 0 {
		t.Fatalf("series shapes differ: %d vs %d samples", len(md.Y), len(ld.Y))
	}
	for k := range md.Y {
		if rel := math.Abs(ld.Y[k]-md.Y[k]) / md.Y[k]; rel > 0.35 {
			t.Errorf("disorder sample %d: live ratio %.1f vs memory %.1f (rel diff %.2f)",
				k, ld.Y[k], md.Y[k], rel)
		}
	}

	// Colluding isolation: skip the injection-tick sample and the first
	// post-injection sample (the colluding lies claim ~50 s RTTs, so the
	// forged replies are still in flight at the first barrier — a lag the
	// in-memory model cannot express), then require order-of-magnitude
	// agreement and a decisive attack on both backends.
	mc, lc := mem.Series[1], live.Series[1]
	for k := 2; k < len(mc.Y); k++ {
		if d := math.Abs(math.Log10(lc.Y[k]) - math.Log10(mc.Y[k])); d > 1 {
			t.Errorf("collude sample %d: live ratio %.0f vs memory %.0f (log10 diff %.2f)",
				k, lc.Y[k], mc.Y[k], d)
		}
	}
	if last := lc.Y[len(lc.Y)-1]; last < 100 {
		t.Errorf("live colluding attack final ratio %.1f, want catastrophic degradation", last)
	}

	// The clean references behind the ratios must agree too: both backends
	// converge the same population over the same substrate.
	cleanOf := func(r *Result) float64 {
		for _, n := range r.Notes {
			i := strings.Index(n, "clean=")
			if strings.Contains(n, "disorder") && i >= 0 {
				var clean float64
				if _, err := fmt.Sscanf(n[i:], "clean=%f", &clean); err == nil {
					return clean
				}
			}
		}
		t.Fatalf("no parsable clean reference in notes %q", r.Notes)
		return 0
	}
	mClean, lClean := cleanOf(mem), cleanOf(live)
	if rel := math.Abs(lClean-mClean) / mClean; rel > 0.3 {
		t.Errorf("clean references diverge: live %.3f vs memory %.3f", lClean, mClean)
	}
}

// TestLiveDeterministicAcrossWorkersAndRuns pins the live backend to the
// engine's determinism contract: the full produced figure — every series,
// every sample — is bit-identical on 1 and 8 workers and across repeated
// runs.
func TestLiveDeterministicAcrossWorkersAndRuns(t *testing.T) {
	sc := liveScale
	sc.VivaldiConvergeTicks, sc.VivaldiAttackTicks = 150, 150
	a, err := RunScenario(fig09Style(BackendLive), sc, NewPool(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(fig09Style(BackendLive), sc, NewPool(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("live backend diverges across worker counts")
	}
	c, err := RunScenario(fig09Style(BackendLive), sc, NewPool(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, c) {
		t.Fatal("live backend diverges across repeated runs")
	}
}

// TestLiveBackendUnderFaults drives the live population over a lossy,
// duplicating, reordering network: convergence survives (the protocol
// simply sees fewer samples) and the fault counters prove the knobs were
// exercised.
func TestLiveBackendUnderFaults(t *testing.T) {
	m := BaseMatrix(liveScale)
	cs := NewLiveNet(m, vivaldi.Config{}, 42, Serial{}, LiveNetConfig{
		Loss: 0.1, Duplicate: 0.05, Reorder: 0.1,
	})
	for i := 0; i < 300; i++ {
		cs.Step(Serial{})
	}
	ls := cs.(*liveSystem)
	st := ls.net.Stats()
	if st.Dropped == 0 || st.Duplicated == 0 || st.Reordered == 0 {
		t.Fatalf("fault knobs not exercised: %+v", st)
	}
	peers := metrics.PeerSets(m.Size(), liveScale.EvalPeers, liveScale.Seed)
	errs := cs.Measure(peers, nil, Serial{}, nil)
	mean := 0.0
	for _, e := range errs {
		mean += e
	}
	mean /= float64(len(errs))
	if mean > 0.6 {
		t.Fatalf("live system did not converge under 10%% loss: mean error %.3f", mean)
	}
}

// TestLiveBackendValidation covers the registration half of the
// capability rule (ScenarioSpec.Validate, on the backend a run pins): the
// live backend refuses NPS and accepts churn (the SimNode reset path
// models live churn), run-level faults need the live backend, and churn
// needs Vivaldi and a fraction in [0,1]. A scale-level live override is
// the plan's half (TestSupportsLive).
func TestLiveBackendValidation(t *testing.T) {
	cases := []struct {
		name string
		kind SystemKind
		run  RunSpec
		ok   bool
	}{
		{"live nps", SystemNPS, RunSpec{Backend: BackendLive}, false},
		{"live churn", SystemVivaldi, RunSpec{Backend: BackendLive, ChurnFrac: 0.1}, true},
		{"bogus backend", SystemVivaldi, RunSpec{Backend: "bogus"}, false},
		// Run-level faults describe the packet network, which only the live
		// backend has; a memory run carrying them must fail loudly.
		{"memory faults", SystemVivaldi, RunSpec{Faults: FaultSpec{Loss: 0.1}}, false},
		{"live faults", SystemVivaldi, RunSpec{Backend: BackendLive, Faults: FaultSpec{Loss: 0.1}}, true},
		// NPS has no churn path: the run used to pass and then ignore it.
		{"nps churn", SystemNPS, RunSpec{ChurnFrac: 0.5}, false},
		{"churn above 1", SystemVivaldi, RunSpec{ChurnFrac: 1.5}, false},
		{"negative churn", SystemVivaldi, RunSpec{ChurnFrac: -0.1}, false},
		{"churn 1", SystemVivaldi, RunSpec{ChurnFrac: 1}, true},
	}
	for _, c := range cases {
		err := ScenarioSpec{
			Name: "x", System: c.kind, Output: OutMeanVsTime,
			Series: []SeriesSpec{{Label: "a", Runs: []RunSpec{c.run}}},
		}.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: rejected: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: accepted at validation", c.name)
		}
	}
}

// TestLiveChurn drives a churn run end-to-end on the live backend: the
// reset daemons re-converge from scratch, so the churned series must stay
// above the churn-free one (the live-churn carryover the campaign work
// closed).
func TestLiveChurn(t *testing.T) {
	spec := ScenarioSpec{
		Name: "livechurn", Title: "live churn", System: SystemVivaldi, Output: OutMeanVsTime,
		Series: []SeriesSpec{
			{Label: "churn 20%", Runs: []RunSpec{{ChurnFrac: 0.20, Backend: BackendLive}}},
			{Label: "no churn", Runs: []RunSpec{{Backend: BackendLive}}},
		},
	}
	res, err := RunScenario(spec, liveScale, NewPool(4))
	if err != nil {
		t.Fatal(err)
	}
	churned, clean := res.Series[0], res.Series[1]
	last := len(churned.Y) - 1
	if churned.Y[last] <= clean.Y[last] {
		t.Errorf("live churn had no effect: churned %.3f vs clean %.3f", churned.Y[last], clean.Y[last])
	}
}

// barrierCount counts the measurement barriers a scenario reaches.
type barrierCount struct{ n atomic.Int64 }

func (b *barrierCount) OnBarrier(CoordSystem, RunSpec, int, int) { b.n.Add(1) }

// TestSupportsLive pins the plan half of the capability rule, which
// cmd/vna-sim applies before a -backend live sweep: under a scale-level
// live override, Plan and RunScenario reject custom runners and anything
// NPS before a single unit is built; plain Vivaldi specs — churn included
// — pass.
func TestSupportsLive(t *testing.T) {
	sc := liveScale
	sc.Backend = BackendLive
	sc.VivaldiConvergeTicks, sc.VivaldiAttackTicks = 60, 60
	sc.NPSConvergeRounds, sc.NPSAttackRounds, sc.NPSSolveIterations = 1, 1, 50
	customRan := false
	viv := SeriesSpec{Label: "vivaldi", Runs: []RunSpec{{}}}
	cases := []struct {
		name string
		spec ScenarioSpec
		ok   bool
	}{
		{"vivaldi", ScenarioSpec{Name: "x", System: SystemVivaldi, Series: []SeriesSpec{viv}}, true},
		{"vivaldi churn", ScenarioSpec{Name: "x", System: SystemVivaldi, Series: []SeriesSpec{
			{Label: "churn", Runs: []RunSpec{{ChurnFrac: 0.05}}},
		}}, true},
		{"nps", ScenarioSpec{Name: "x", System: SystemNPS, Series: []SeriesSpec{viv}}, false},
		// The Vivaldi series used to run to completion before the NPS unit
		// failed to build.
		{"nps series after a vivaldi one", ScenarioSpec{Name: "x", System: SystemVivaldi, Series: []SeriesSpec{
			viv, {Label: "nps", System: SystemNPS, Runs: []RunSpec{{}}},
		}}, false},
		{"custom", ScenarioSpec{Name: "x", Custom: func(Scale, *Pool) *Result {
			customRan = true
			return &Result{}
		}}, false},
	}
	for _, c := range cases {
		if _, _, _, err := Plan(c.spec, sc); (err == nil) != c.ok {
			t.Errorf("%s: Plan error %v, want ok=%v", c.name, err, c.ok)
		}
		var barriers barrierCount
		obs := sc
		obs.Observer = &barriers
		if _, err := RunScenario(c.spec, obs, NewPool(2)); (err == nil) != c.ok {
			t.Errorf("%s: RunScenario error %v, want ok=%v", c.name, err, c.ok)
		}
		if n := barriers.n.Load(); !c.ok && n != 0 {
			t.Errorf("%s: %d barriers ran before the rejection", c.name, n)
		}
	}
	if customRan {
		t.Error("custom runner ran under a live override")
	}
}

// TestLivePartitionTimesOut is the partition satellite's proof: probes
// across a cut are sent, never delivered, and expire in the prober's
// pending set — they time out rather than silently succeeding — and
// healing the cut restores the update flow.
func TestLivePartitionTimesOut(t *testing.T) {
	sc := liveScale
	m := BaseMatrix(sc)
	cs := NewLiveNet(m, vivaldi.Config{}, 7, Serial{}, LiveNetConfig{})
	ls := cs.(*liveSystem)
	for i := 0; i < 20; i++ {
		cs.Step(Serial{})
	}

	// Total partition: every node on both sides, so every probe crosses
	// the cut.
	n := cs.Size()
	all := make([]bool, n)
	for i := range all {
		all[i] = true
	}
	id := ls.ApplyPartition(all, all)
	// One tick drains the packets that were already in flight when the
	// cut landed (the partition blocks sends, it does not vaporise
	// deliveries already scheduled).
	cs.Step(Serial{})
	before := make([]int, n)
	for i := range before {
		before[i] = ls.nodes[i].Updates()
	}
	ls.net.TakeStats()
	for i := 0; i < 10; i++ {
		cs.Step(Serial{})
	}
	st := ls.net.TakeStats()
	if st.Cut == 0 {
		t.Fatal("no transmissions counted as cut")
	}
	if st.Delivered != 0 {
		t.Fatalf("%d packets delivered across a total partition", st.Delivered)
	}
	pendingSum := 0
	for i := 0; i < n; i++ {
		if got := ls.nodes[i].Updates(); got != before[i] {
			t.Fatalf("node %d applied %d updates across the cut", i, got-before[i])
		}
		pendingSum += ls.nodes[i].PendingProbes()
	}
	if pendingSum == 0 {
		t.Fatal("no probes pending: the cut probes should be awaiting timeouts")
	}

	// Heal: updates resume, and the stranded probes eventually expire out
	// of the pending sets instead of matching stale responses.
	ls.HealPartition(id)
	for i := 0; i < 20; i++ {
		cs.Step(Serial{})
	}
	resumed := 0
	for i := 0; i < n; i++ {
		if ls.nodes[i].Updates() > before[i] {
			resumed++
		}
	}
	if resumed < n/2 {
		t.Fatalf("only %d/%d nodes resumed updating after heal", resumed, n)
	}
}

// TestResolveBackend pins the resolution policy: run pin > scale override
// > memory.
func TestResolveBackend(t *testing.T) {
	if got := ResolveBackend(RunSpec{}, Scale{}); got != BackendMemory {
		t.Fatalf("default backend %q", got)
	}
	if got := ResolveBackend(RunSpec{}, Scale{Backend: BackendLive}); got != BackendLive {
		t.Fatalf("scale override ignored: %q", got)
	}
	if got := ResolveBackend(RunSpec{Backend: BackendMemory}, Scale{Backend: BackendLive}); got != BackendMemory {
		t.Fatalf("run pin did not win: %q", got)
	}
	if _, err := ParseExecBackend("live"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseExecBackend("bogus"); err == nil {
		t.Fatal("bogus backend parsed")
	}
}

// inflatingTap delays every probe by a fixed number of milliseconds.
type inflatingTap struct{ ms float64 }

func (a inflatingTap) Respond(prober int, honest vivaldi.ProbeResponse, view vivaldi.View) vivaldi.ProbeResponse {
	honest.RTT += a.ms
	return honest
}

// TestForgedDelaySaturates: an RTT inflation too large for a Duration (or
// not a number at all) used to convert to MinInt64 on amd64, which the
// network reads as "send now" — the biggest lie in the system became the
// only undelayed one. It must instead be held back at least as long as any
// prober waits, by an amount the scheduler can add to its clock.
func TestForgedDelaySaturates(t *testing.T) {
	m := BaseMatrix(liveScale)
	ls := NewLiveNet(m, vivaldi.Config{}, 3, Serial{}, LiveNetConfig{}).(*liveSystem)
	honest := wire.ProbeResponse{Error: 0.3, Vec: []float64{1, 2}}
	for _, c := range []struct {
		ms       float64
		min, max time.Duration
	}{
		{1e3, time.Second, time.Second},
		{1e13, liveProbeTimeout, math.MaxInt64 / 2},
		{5e39, liveProbeTimeout, math.MaxInt64 / 2},
		{math.Inf(1), liveProbeTimeout, math.MaxInt64 / 2},
		{math.NaN(), 0, 0},
	} {
		ls.SetTap(1, inflatingTap{ms: c.ms})
		_, delay := ls.forgeFor(1)(honest, 0)
		if delay < c.min || delay > c.max {
			t.Errorf("inflation of %v ms became a response delay of %v (%d ns), want within [%v, %v]",
				c.ms, delay, int64(delay), c.min, c.max)
		}
	}
}
