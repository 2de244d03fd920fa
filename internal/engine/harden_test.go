package engine

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/coordspace"
	"repro/internal/core"
	"repro/internal/latency"
	"repro/internal/vivaldi"
)

// dumpBits renders a coordinate store plus per-node error vector as one
// line of hex-encoded float64 bits per value — the format of the
// pre-change goldens under testdata/harden/ (captured before the
// hardening pipeline existed, so a byte match proves the all-off path is
// the old code).
func dumpBits(st *coordspace.Store, errs []float64) string {
	var b strings.Builder
	for _, v := range st.Data() {
		fmt.Fprintf(&b, "%016x\n", math.Float64bits(v))
	}
	for _, e := range errs {
		fmt.Fprintf(&b, "%016x\n", math.Float64bits(e))
	}
	return b.String()
}

func localErrs(n int, at func(int) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = at(i)
	}
	return out
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "harden", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s: trajectory diverged from the pre-hardening golden (all-off hardening must be bit-identical to the old code)", name)
	}
}

// TestHardenedOffBitIdentical pins the tentpole's zero-cost-off contract:
// with every Hardening knob at its zero value the full pipeline — the
// sharded StepParallel kernel and the live-UDP backend — reproduces the
// exact pre-change trajectories recorded in testdata/harden/, bit for
// bit, through both clean convergence and mid-run attack injection.
func TestHardenedOffBitIdentical(t *testing.T) {
	pool := NewPool(3)
	m := BaseSubstrate(Bench, latency.BackendDense, pool)
	mal := []int{1, 5, 9, 13, 21, 34}

	t.Run("mem-parallel", func(t *testing.T) {
		sys := vivaldi.NewSystemSharded(m, vivaldi.Config{}, 42, pool)
		for tick := 0; tick < 60; tick++ {
			sys.StepParallel(pool)
		}
		c := core.NewConspiracy(0, sys.Space(), 50000, 40000, 42)
		for _, id := range mal {
			sys.SetTap(id, core.NewVivaldiColludeRepel(id, c))
		}
		for tick := 0; tick < 60; tick++ {
			sys.StepParallel(pool)
		}
		checkGolden(t, "off_mem_parallel.golden",
			dumpBits(sys.Store(), localErrs(sys.Size(), sys.LocalError)))
	})

	t.Run("live", func(t *testing.T) {
		ls := NewLiveNet(m, vivaldi.Config{}, 42, pool, LiveNetConfig{})
		for tick := 0; tick < 20; tick++ {
			ls.Step(pool)
		}
		if _, err := ls.Inject(AttackSpec{Kind: AttackDisorder}, mal, 42); err != nil {
			t.Fatal(err)
		}
		for tick := 0; tick < 20; tick++ {
			ls.Step(pool)
		}
		lv := ls.(vivaldi.View)
		checkGolden(t, "off_live.golden",
			dumpBits(ls.Store(), localErrs(ls.Size(), lv.LocalError)))
	})
}

// fullStackHardening is the grid's strongest defense configuration — every
// option enabled at the values the hardenedGrid scenarios sweep.
var fullStackHardening = vivaldi.Hardening{
	LatencyWindow:      5,
	AdjustmentWindow:   10,
	GravityRho:         500,
	NeighborDecayTicks: 200,
}

// TestHardenedDeterminismAcrossWorkers pins the hardened tick's
// shard-independence at scale: a 25k-node full-stack-hardened population
// over the O(n) model substrate produces bit-identical coordinates,
// errors and adjustment terms whether stepped with 1 worker or 8. Runs
// under -short — the model substrate keeps construction and stepping
// cheap enough for the tier-1 suite.
func TestHardenedDeterminismAcrossWorkers(t *testing.T) {
	const n = 25000
	m := latency.NewKingLikeModel(latency.DefaultKingLike(n), 7)
	cfg := vivaldi.Config{Harden: fullStackHardening}

	build := func(workers int) *vivaldi.System {
		pool := NewPool(workers)
		sys := vivaldi.NewSystemSharded(m, cfg, 11, pool)
		for tick := 0; tick < 8; tick++ {
			sys.StepParallel(pool)
		}
		return sys
	}
	one, eight := build(1), build(8)

	a, b := one.Store().Data(), eight.Store().Data()
	if len(a) != len(b) {
		t.Fatalf("store sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("coordinate word %d differs across worker counts: %v vs %v", i, a[i], b[i])
		}
	}
	for i := 0; i < n; i++ {
		if math.Float64bits(one.LocalError(i)) != math.Float64bits(eight.LocalError(i)) {
			t.Fatalf("node %d error differs across worker counts: %v vs %v", i, one.LocalError(i), eight.LocalError(i))
		}
	}
	aj1, aj8 := one.Adjustments(), eight.Adjustments()
	if aj1 == nil || aj8 == nil {
		t.Fatal("full-stack hardening must expose adjustment terms")
	}
	for i := range aj1 {
		if math.Float64bits(aj1[i]) != math.Float64bits(aj8[i]) {
			t.Fatalf("node %d adjustment differs across worker counts: %v vs %v", i, aj1[i], aj8[i])
		}
	}
}
