package engine

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/vivaldi"
)

func onePhase(ph Phase) *Schedule { return &Schedule{Phases: []Phase{ph}} }

// TestScheduleValidation sweeps the structural rules (exactly one action,
// ordered windows, selector constraints) and the capability rule's system
// requirements, through ScenarioSpec.Validate as registration applies them.
func TestScheduleValidation(t *testing.T) {
	disorder := &PhaseAttack{Spec: AttackSpec{Kind: AttackDisorder}, Frac: 0.2}
	cases := []struct {
		name string
		kind SystemKind
		s    *Schedule
		ok   bool
	}{
		{"empty", SystemVivaldi, &Schedule{}, false},
		{"no action", SystemVivaldi, onePhase(Phase{At: 1}), false},
		{"two actions", SystemVivaldi, onePhase(Phase{Attack: disorder, Churn: &PhaseChurn{Frac: 0.1}}), false},
		{"negative at", SystemVivaldi, onePhase(Phase{At: -1, Attack: disorder}), false},
		{"until before at", SystemVivaldi, onePhase(Phase{At: 3, Until: 2, Attack: disorder}), false},
		{"attack ok", SystemVivaldi, onePhase(Phase{At: 1, Until: 3, Attack: disorder}), true},
		{"attack none", SystemVivaldi, onePhase(Phase{Attack: &PhaseAttack{Frac: 0.2}}), false},
		{"attack no frac", SystemVivaldi, onePhase(Phase{Attack: &PhaseAttack{Spec: AttackSpec{Kind: AttackDisorder}}}), false},
		{"attack ids no frac", SystemVivaldi, onePhase(Phase{Attack: &PhaseAttack{
			Spec: AttackSpec{Kind: AttackDisorder}, Sel: Selector{Kind: SelIDs, IDs: []int{3, 5}},
		}}), true},
		{"faults ok", SystemVivaldi, onePhase(Phase{At: 1, Faults: &FaultSpec{Loss: 0.1}}), true},
		{"faults bad loss", SystemVivaldi, onePhase(Phase{Faults: &FaultSpec{Loss: 1.5}}), false},
		{"partition ok", SystemVivaldi, onePhase(Phase{At: 1, Partition: &PhasePartition{
			A: Selector{Kind: SelFrac, Frac: 0.25},
		}}), true},
		{"partition rest as A", SystemVivaldi, onePhase(Phase{Partition: &PhasePartition{
			A: Selector{Kind: SelRest},
		}}), false},
		{"churn ok", SystemVivaldi, onePhase(Phase{At: 2, Churn: &PhaseChurn{Frac: 0.3}}), true},
		{"churn bad frac", SystemVivaldi, onePhase(Phase{Churn: &PhaseChurn{Frac: 1.5}}), false},
		{"rest outside partition", SystemVivaldi, onePhase(Phase{Churn: &PhaseChurn{
			Frac: 0.1, Sel: Selector{Kind: SelRest},
		}}), false},
		{"session churn ok", SystemVivaldi, onePhase(Phase{At: 1, Until: 6, Churn: &PhaseChurn{
			Frac: 0.2, Sessions: &ChurnSessions{Alpha: 1.5, MinPeriods: 1},
		}}), true},
		{"session churn bad alpha", SystemVivaldi, onePhase(Phase{At: 1, Until: 6, Churn: &PhaseChurn{
			Frac: 0.2, Sessions: &ChurnSessions{Alpha: 0, MinPeriods: 1},
		}}), false},
		{"session churn bad min", SystemVivaldi, onePhase(Phase{At: 1, Until: 6, Churn: &PhaseChurn{
			Frac: 0.2, Sessions: &ChurnSessions{Alpha: 1.5},
		}}), false},
		{"session churn no until", SystemVivaldi, onePhase(Phase{At: 1, Churn: &PhaseChurn{
			Frac: 0.2, Sessions: &ChurnSessions{Alpha: 1.5, MinPeriods: 1},
		}}), false},
		{"nps attack ok", SystemNPS, onePhase(Phase{At: 1, Attack: disorder}), true},
		{"nps churn rejected", SystemNPS, onePhase(Phase{Churn: &PhaseChurn{Frac: 0.1}}), false},
		{"nps faults rejected", SystemNPS, onePhase(Phase{Faults: &FaultSpec{Loss: 0.1}}), false},
		{"nps partition rejected", SystemNPS, onePhase(Phase{Partition: &PhasePartition{
			A: Selector{Kind: SelFrac, Frac: 0.25},
		}}), false},
		{"nps attack degree rejected", SystemNPS, onePhase(Phase{At: 1, Attack: &PhaseAttack{
			Spec: AttackSpec{Kind: AttackDisorder}, Frac: 0.2, Sel: Selector{Kind: SelDegree, Frac: 0.5},
		}}), false},
		{"vivaldi attack degree ok", SystemVivaldi, onePhase(Phase{At: 1, Attack: &PhaseAttack{
			Spec: AttackSpec{Kind: AttackDisorder}, Frac: 0.2, Sel: Selector{Kind: SelDegree, Frac: 0.5},
		}}), true},
		{"landmarks selector unknown (nps)", SystemNPS, onePhase(Phase{At: 1, Attack: &PhaseAttack{
			Spec: AttackSpec{Kind: AttackDisorder}, Frac: 0.2, Sel: Selector{Kind: "landmarks"},
		}}), false},
		{"landmarks selector unknown (vivaldi)", SystemVivaldi, onePhase(Phase{Partition: &PhasePartition{
			A: Selector{Kind: "landmarks"},
		}}), false},
	}
	for _, c := range cases {
		err := ScenarioSpec{
			Name: "x", System: c.kind, Output: OutMeanVsTime,
			Series: []SeriesSpec{{Label: "a", Runs: []RunSpec{{Schedule: c.s}}}},
		}.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid schedule accepted", c.name)
		}
	}
}

// TestSelectorResolve pins the selector semantics on a real population.
func TestSelectorResolve(t *testing.T) {
	m := SubgroupMatrix(liveScale, 48)
	cs := NewVivaldiSharded(m, vivaldi.Config{}, 3, nil)
	rng := lazyRng(3, "test-sel", 0)

	if all := (Selector{}).resolve(cs, nil, rng); len(all) != 48 {
		t.Fatalf("SelAll: %d nodes", len(all))
	}
	if frac := (Selector{Kind: SelFrac, Frac: 0.25}).resolve(cs, nil, rng); len(frac) != 12 {
		t.Fatalf("SelFrac 0.25: %d nodes", len(frac))
	}
	if ids := (Selector{Kind: SelIDs, IDs: []int{5, 99, 7}}).resolve(cs, nil, rng); !reflect.DeepEqual(ids, []int{5, 7}) {
		t.Fatalf("SelIDs: got %v", ids)
	}
	deg := Selector{Kind: SelDegree, Frac: 0.1}.resolve(cs, nil, rng)
	if len(deg) != 4 {
		t.Fatalf("SelDegree: %d nodes", len(deg))
	}
	// 48 nodes < 64 springs: the graph is complete, every degree equal, so
	// the stable sort picks the lowest ids.
	if !reflect.DeepEqual(deg, []int{0, 1, 2, 3}) {
		t.Fatalf("SelDegree tie-break: got %v", deg)
	}
}

// TestCampaignAttackRemoval is the phase-dispatch unit test the issue
// asks for: install → remove → reinstall → remove. During each attack
// window the honest error ratio is elevated; after the recovery window it
// returns within tolerance of a clean (never-attacked) run — attacks are
// provably removable, not just installable.
func TestCampaignAttackRemoval(t *testing.T) {
	sc := liveScale
	sc.VivaldiConvergeTicks, sc.VivaldiAttackTicks, sc.MeasureEvery = 300, 900, 60

	sched := &Schedule{Phases: []Phase{
		{At: 1, Until: 3, Attack: &PhaseAttack{Spec: AttackSpec{Kind: AttackDisorder}, Frac: 0.3}},
		{At: 7, Until: 9, Attack: &PhaseAttack{Spec: AttackSpec{Kind: AttackDisorder}, Frac: 0.3}},
	}}
	spec := ScenarioSpec{
		Name: "removal", Title: "attack removal", System: SystemVivaldi, Output: OutRatioVsTime,
		Series: []SeriesSpec{{Label: "campaign", Runs: []RunSpec{{Schedule: sched}}}},
	}
	res, err := RunScenario(spec, sc, NewPool(4))
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.Series[0].Y
	// Samples land at periods 0..15; attacks active in [1,3) and [7,9).
	// A removal fires at the same barrier its Until sample is measured at,
	// so period 3 still sees the damage; recovery takes ~3 periods of
	// re-convergence (the attack inflated every honest error estimate).
	during1, during2 := ratio[2], ratio[8]
	if during1 < 1.5 || during2 < 1.5 {
		t.Fatalf("scheduled attacks had no effect: ratios %.2f / %.2f", during1, during2)
	}
	after1 := ratio[6]
	after2 := (ratio[13] + ratio[14] + ratio[15]) / 3
	for name, r := range map[string]float64{"first removal": after1, "final": after2} {
		if math.Abs(r-1) > 0.35 {
			t.Errorf("%s: ratio %.3f after recovery, want within 35%% of clean", name, r)
		}
	}
}

// TestCampaignPartitionMemory exercises the in-memory partition path: a
// totally isolated node set stops moving (no samples reach it), and heals
// back into convergence afterwards.
func TestCampaignPartitionMemory(t *testing.T) {
	m := SubgroupMatrix(liveScale, 48)
	cs := NewVivaldiSharded(m, vivaldi.Config{}, 5, nil)
	pool := NewPool(4)
	for i := 0; i < 50; i++ {
		cs.Step(pool)
	}
	n := cs.Size()
	all := make([]bool, n)
	for i := range all {
		all[i] = true
	}
	pt := cs.(springSystem)
	id := pt.ApplyPartition(all, all) // complete cut: nobody samples
	frozen := cs.Store().Coords()
	for i := 0; i < 30; i++ {
		cs.Step(pool)
	}
	for i, c := range cs.Store().Coords() {
		if !reflect.DeepEqual(c, frozen[i]) {
			t.Fatalf("node %d moved across a total partition", i)
		}
	}
	pt.HealPartition(id)
	cs.Step(pool)
	moved := 0
	for i, c := range cs.Store().Coords() {
		if !reflect.DeepEqual(c, frozen[i]) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no node moved after healing the partition")
	}
}

// TestCampaignFaultAccounting runs a live campaign with a loss phase and
// checks the phase actually mutated the network (via the read-and-reset
// stats) and restored the previous knobs at Until.
func TestCampaignFaultAccounting(t *testing.T) {
	m := BaseMatrix(liveScale)
	cs := NewLiveNet(m, vivaldi.Config{}, 9, Serial{}, LiveNetConfig{})
	ls := cs.(*liveSystem)

	if got := ls.faults().Loss; got != 0 {
		t.Fatalf("fresh live network has loss %g", got)
	}
	prev := ls.faults()
	ls.setFaults(FaultSpec{Loss: 0.2})
	ls.net.TakeStats()
	for i := 0; i < 20; i++ {
		cs.Step(Serial{})
	}
	lossy := ls.net.TakeStats()
	if lossy.Dropped == 0 {
		t.Fatal("20% loss phase dropped nothing")
	}
	ls.setFaults(prev)
	if got := ls.faults(); got != prev {
		t.Fatalf("fault restore mismatch: %+v vs %+v", got, prev)
	}
	for i := 0; i < 20; i++ {
		cs.Step(Serial{})
	}
	clean := ls.net.TakeStats()
	if clean.Dropped != 0 {
		t.Fatalf("restored network still dropped %d packets", clean.Dropped)
	}
}

// TestSessionChurnDeterminism pins the Pareto session-length churn to the
// engine's fixed-seed contract: the participant draw, every session
// length, and therefore every reset all come from derived streams swept on
// the unit's goroutine, so the series must be bit-identical at any worker
// count — and the heavy-tailed schedule must actually reset nodes (the
// series stays perturbed while the phase is active).
func TestSessionChurnDeterminism(t *testing.T) {
	sc := liveScale
	sc.VivaldiConvergeTicks, sc.VivaldiAttackTicks, sc.MeasureEvery = 300, 600, 60

	sched := &Schedule{Phases: []Phase{
		{At: 1, Until: 9, Churn: &PhaseChurn{
			Frac:     0.4,
			Sessions: &ChurnSessions{Alpha: 1.5, MinPeriods: 1},
		}},
	}}
	spec := ScenarioSpec{
		Name: "sessions", Title: "pareto session churn", System: SystemVivaldi, Output: OutMeanVsTime,
		Series: []SeriesSpec{
			{Label: "stable", Runs: []RunSpec{{}}},
			{Label: "pareto churn", Runs: []RunSpec{{Schedule: sched}}},
		},
	}
	one, err := RunScenario(spec, sc, NewPool(1))
	if err != nil {
		t.Fatal(err)
	}
	eight, err := RunScenario(spec, sc, NewPool(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, eight) {
		t.Fatal("pareto session churn: series differ between 1 and 8 workers")
	}

	stable, churned := one.Series[0].Y, one.Series[1].Y
	bumped := 0
	for q := 2; q <= 9; q++ {
		if churned[q] > stable[q]*1.05 {
			bumped++
		}
	}
	if bumped < 4 {
		t.Errorf("session churn left the series unperturbed: only %d/8 active periods elevated", bumped)
	}
}
