package engine_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/engine"
	_ "repro/internal/experiment" // registers the scenarios
)

// TestPlanPinned pins what the planner decides for the scenarios that
// exercise each of its rules, at the quick preset (2 repetitions).
func TestPlanPinned(t *testing.T) {
	cases := []struct {
		id                    string
		units, groups, shared int
		why                   string
	}{
		{"fig01", 10, 2, 8, "5 fractions x 2 reps: one group per rep"},
		{"fig03", 40, 8, 32, "4 spaces x 5 fractions: one group per space x rep"},
		{"fig04", 20, 10, 10, "5 sizes x 2 fractions: one group per size x rep"},
		{"extB", 4, 4, 0, "genesis and measure-from-start runs have no clean phase to share"},
		{"extC", 6, 2, 4, "churn rates differ only after injection"},
		{"campaignFull", 2, 2, 0, "one series: two groups of one"},
		{"hardenedOverlay", 80, 16, 64, "two system kinds and five hardening configs never share"},
		{"live1740", 4, 4, 0, "the live backend is not copied"},
		{"extA", 0, 0, 0, "custom runner"},
	}
	for _, c := range cases {
		sp, ok := engine.Get(c.id)
		if !ok {
			t.Fatalf("%s not registered", c.id)
		}
		units, groups, shared, err := engine.Plan(sp, engine.Quick)
		if err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		if units != c.units || groups != c.groups || shared != c.shared {
			t.Errorf("%s: plan = %d units in %d groups, %d shared; want %d/%d/%d (%s)",
				c.id, units, groups, shared, c.units, c.groups, c.shared, c.why)
		}
	}
	// A scale with no clean phase shares nothing.
	sp, _ := engine.Get("fig01")
	sc := engine.Quick
	sc.VivaldiConvergeTicks = 0
	if _, _, shared, _ := engine.Plan(sp, sc); shared != 0 {
		t.Errorf("fig01 with no convergence phase: %d shared, want 0", shared)
	}
}

// TestSharedEqualsUnshared is the tentpole's contract: for every registered
// memory-backend scenario, RunScenario — units grouped, each group
// converged once, members continuing from copies, claimed in whatever
// order the lane reaches them — returns exactly the Result obtained by
// running every unit from scratch, at any pool width. Under -race (`make
// race`) it runs raceScenarios at width 8 only — the pass that would show
// two copies sharing scratch. Scenarios pinned to 10 000 nodes and more
// are left to the experiment package's 25k determinism tests (same path,
// minutes here).
func TestSharedEqualsUnshared(t *testing.T) {
	widths := []int{1, 2, 8}
	if raceBuild {
		widths = []int{8}
	}
	for _, sp := range engine.List() {
		if sp.Custom != nil || tooBigOrLive(sp) || raceBuild && !raceScenarios[sp.Name] {
			continue
		}
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			want, err := engine.RunUnshared(sp, engine.Bench, engine.NewPool(1))
			if err != nil {
				t.Fatalf("unshared: %v", err)
			}
			for _, workers := range widths {
				got, err := engine.RunScenario(sp, engine.Bench, engine.NewPool(workers))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(bits(got), bits(want)) {
					t.Errorf("workers=%d: shared result differs from the unshared reference", workers)
				}
			}
		})
	}
}

// raceScenarios: one scenario per planner rule and per cloned state — plain
// sweep, sizes, spaces, churn, a campaign, the hardening rings, NPS.
var raceScenarios = map[string]bool{
	"fig01": true, "fig03": true, "fig04": true, "extC": true,
	"campaignChurn": true, "hardenedGridFrog": true, "fig21": true,
}

func tooBigOrLive(sp engine.ScenarioSpec) bool {
	for _, s := range sp.Series {
		for _, r := range s.Runs {
			if r.Nodes >= 10000 || engine.ResolveBackend(r, engine.Bench) != engine.BackendMemory {
				return true
			}
		}
	}
	return false
}

// bits flattens a Result into labels, notes (which carry the clean
// reference, the random baseline and the filter counts) and the IEEE bits
// of every point, so equality means bit-identical and NaN equals NaN.
func bits(res *engine.Result) []any {
	out := []any{res.ID, res.Title, res.XLabel, res.YLabel, res.Notes}
	for _, s := range res.Series {
		pts := make([]uint64, 0, 2*len(s.X))
		for k := range s.X {
			pts = append(pts, math.Float64bits(s.X[k]), math.Float64bits(s.Y[k]))
		}
		out = append(out, s.Label, pts)
	}
	return out
}
