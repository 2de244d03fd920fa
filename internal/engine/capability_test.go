package engine

import (
	"testing"

	"repro/internal/vivaldi"
)

// TestCapabilityMatrix is the capability rule's safety net: one row per run
// option, phase kind and selector kind, in the order of checkRun's table
// (SelAll is the attack phase's row, SelRest the partition's B side), one
// column per (system, backend) pair. A rejected cell must fail at Validate
// (backend pinned on the run) and at Plan (the same backend as a scale
// override); an accepted one — the memory fault no-op included — must run a
// tiny scenario to completion, so no unit ever asserts a capability its
// system lacks.
func TestCapabilityMatrix(t *testing.T) {
	cols := []struct {
		kind    SystemKind
		backend ExecBackend
	}{{SystemVivaldi, BackendMemory}, {SystemVivaldi, BackendLive}, {SystemNPS, BackendMemory}}
	sc := Scale{
		Name: "capability", Nodes: 48, Reps: 1, Seed: 5, EvalPeers: 8,
		VivaldiConvergeTicks: 40, VivaldiAttackTicks: 80, MeasureEvery: 20,
		NPSConvergeRounds: 1, NPSAttackRounds: 3, NPSSolveIterations: 40,
	}
	attack := func(sel Selector) *Schedule {
		return onePhase(Phase{At: 1, Until: 2, Attack: &PhaseAttack{Spec: AttackSpec{Kind: AttackDisorder}, Frac: 0.1, Sel: sel}})
	}
	const Y, N = true, false
	rows := []struct {
		name string
		run  RunSpec
		ok   [3]bool // vivaldi/memory, vivaldi/live, nps/memory
	}{
		{"plain", RunSpec{}, [3]bool{Y, Y, Y}},
		{"RunSpec.Harden", RunSpec{Harden: vivaldi.Hardening{LatencyWindow: 3}}, [3]bool{Y, Y, N}},
		{"RunSpec.Faults", RunSpec{Faults: FaultSpec{Loss: 0.05}}, [3]bool{N, Y, N}},
		{"RunSpec.ChurnFrac", RunSpec{ChurnFrac: 0.1}, [3]bool{Y, Y, N}},
		{"attack phase", RunSpec{Schedule: attack(Selector{})}, [3]bool{Y, Y, Y}},
		{"partition phase", RunSpec{Schedule: onePhase(Phase{At: 1, Until: 2, Partition: &PhasePartition{
			A: Selector{Kind: SelFrac, Frac: 0.25}, B: Selector{Kind: SelRest},
		}})}, [3]bool{Y, Y, N}},
		{"churn phase", RunSpec{Schedule: onePhase(Phase{At: 1, Churn: &PhaseChurn{Frac: 0.2}})}, [3]bool{Y, Y, N}},
		{"fault phase", RunSpec{Schedule: onePhase(Phase{At: 1, Until: 2, Faults: &FaultSpec{Loss: 0.1}})}, [3]bool{Y, Y, N}},
		{"SelFrac", RunSpec{Schedule: attack(Selector{Kind: SelFrac, Frac: 0.5})}, [3]bool{Y, Y, Y}},
		{"SelIDs", RunSpec{Schedule: attack(Selector{Kind: SelIDs, IDs: []int{1, 2, 3, 40}})}, [3]bool{Y, Y, Y}},
		{"SelDegree", RunSpec{Schedule: attack(Selector{Kind: SelDegree, Frac: 0.5})}, [3]bool{Y, Y, N}},
	}
	pool := NewPool(2)
	for _, row := range rows {
		for ci, col := range cols {
			name := row.name + " on " + string(col.kind) + "/" + string(col.backend)
			spec := func(r RunSpec) ScenarioSpec {
				return ScenarioSpec{
					Name: "matrix", System: col.kind, Output: OutMeanVsTime,
					Series: []SeriesSpec{{Label: "a", Runs: []RunSpec{r}}},
				}
			}
			pinned := row.run
			pinned.Backend = col.backend
			if err := spec(pinned).Validate(); (err == nil) != row.ok[ci] {
				t.Errorf("%s: Validate error %v, want ok=%v", name, err, row.ok[ci])
				continue
			}
			override := sc
			override.Backend = col.backend
			if _, _, _, err := Plan(spec(row.run), override); (err == nil) != row.ok[ci] {
				t.Errorf("%s: Plan error %v, want ok=%v", name, err, row.ok[ci])
			}
			if !row.ok[ci] {
				continue
			}
			if _, err := RunScenario(spec(pinned), sc, pool); err != nil {
				t.Errorf("%s: accepted but failed to run: %v", name, err)
			}
		}
	}
}
