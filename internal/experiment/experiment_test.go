package experiment

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/engine"
)

// tinyPreset keeps unit tests fast; it is the benchmark preset.
var tinyPreset = Bench

// paperFigures is every figure of the paper's evaluation; fig17 is a
// diagram and must NOT be registered.
var paperFigures = []string{
	"fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07",
	"fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
	"fig15", "fig16", "fig18", "fig19", "fig20", "fig21", "fig22",
	"fig23", "fig24", "fig25", "fig26",
}

func TestRegistryComplete(t *testing.T) {
	for _, id := range paperFigures {
		reg, ok := Get(id)
		if !ok {
			t.Errorf("experiment %s not registered", id)
			continue
		}
		if reg.Run == nil || reg.Title == "" || reg.Figure == "" {
			t.Errorf("experiment %s registration incomplete: %+v", id, reg)
		}
	}
	if _, ok := Get("fig17"); ok {
		t.Error("fig17 is a diagram, not an experiment — must not be registered")
	}
	extras := []string{
		"extA", "extB", "extC", "scale5k", "scale10k", "scale25k", "scale50k",
		"attack25k", "npsScale25k", "npsAttack25k",
		"live1740", "liveAttack", "live5k", "live25k",
		"campaignPartition", "campaignLoss", "campaignChurn", "campaignFlash",
		"campaignServe", "campaignFull", "liveLoss",
		"hardenedGridDisorder", "hardenedGridRepulse", "hardenedGridCollude",
		"hardenedGridFrog", "hardenedOverlay",
	}
	for _, ext := range extras {
		if _, ok := Get(ext); !ok {
			t.Errorf("extension experiment %s not registered", ext)
		}
	}
	if got := len(List()); got != len(paperFigures)+len(extras) {
		t.Errorf("registry has %d experiments, want %d", got, len(paperFigures)+len(extras))
	}
}

// TestDocumentedScenariosRegistered holds the docs to the registry: every
// `vna-sim -scenario <id>` reproduce command in README.md and docs/ must
// name a registered scenario (`vna-sim -list` prints exactly the registry).
func TestDocumentedScenariosRegistered(t *testing.T) {
	files, err := filepath.Glob("../../docs/*.md")
	if err != nil || len(files) == 0 {
		t.Fatalf("no docs found: %v", err)
	}
	files = append(files, "../../README.md")
	cmd := regexp.MustCompile(`-scenario ([A-Za-z0-9,]+)`)
	seen := 0
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cmd.FindAllSubmatch(text, -1) {
			for _, id := range strings.Split(string(m[1]), ",") {
				if id == "all" {
					continue
				}
				seen++
				if _, ok := Get(id); !ok {
					t.Errorf("%s documents `-scenario %s`, which is not registered", filepath.Base(f), id)
				}
			}
		}
	}
	if seen < 40 {
		t.Fatalf("only %d documented scenario commands found — did the docs move?", seen)
	}
}

// TestRegistryRunnable asserts every registered paper figure is a valid,
// expandable scenario: the spec passes validation and every declared run
// is constructible. (Full executions are covered per-figure by the
// benchmark harness and by the shape tests below.)
func TestRegistryRunnable(t *testing.T) {
	for _, id := range paperFigures {
		sp, ok := engine.Get(id)
		if !ok {
			t.Errorf("scenario %s not in engine registry", id)
			continue
		}
		if err := sp.Validate(); err != nil {
			t.Errorf("scenario %s invalid: %v", id, err)
		}
		if sp.Custom != nil {
			continue
		}
		for _, s := range sp.Series {
			if len(s.Runs) == 0 {
				t.Errorf("scenario %s series %q has no runs", id, s.Label)
			}
		}
	}
}

func TestListSorted(t *testing.T) {
	list := List()
	for i := 1; i < len(list); i++ {
		if list[i-1].ID >= list[i].ID {
			t.Fatalf("List not sorted: %s >= %s", list[i-1].ID, list[i].ID)
		}
	}
}

func TestPresetByName(t *testing.T) {
	for _, name := range []string{"bench", "quick", "standard", "full", ""} {
		if _, err := PresetByName(name); err != nil {
			t.Errorf("PresetByName(%q): %v", name, err)
		}
	}
	if _, err := PresetByName("bogus"); err == nil {
		t.Error("bogus preset accepted")
	}
}

func TestRunWithUnknown(t *testing.T) {
	if _, err := RunWith("nope", tinyPreset, 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// detScale is a reduced scale for the determinism test: small enough to
// run twice, with 2 repetitions so the repetition lane of the parallel
// executor is exercised too.
var detScale = Preset{
	Name:                 "det",
	Nodes:                70,
	Reps:                 2,
	Seed:                 11,
	VivaldiConvergeTicks: 200,
	VivaldiAttackTicks:   200,
	MeasureEvery:         50,
	NPSConvergeRounds:    2,
	NPSAttackRounds:      2,
	EvalPeers:            16,
	NPSSolveIterations:   60,
}

// TestDeterminismAcrossWorkers is the engine's core contract: for a fixed
// seed, the produced figure series are bit-identical whether a scenario
// runs on 1 worker or 8. Covers a Vivaldi time-series figure (sharded
// ticks, colluding taps), an NPS figure (layered solves, security filter)
// and the churn extension (per-shard churn streams).
func TestDeterminismAcrossWorkers(t *testing.T) {
	for _, id := range []string{"fig09", "fig21", "extC"} {
		one, err := RunWith(id, detScale, 1)
		if err != nil {
			t.Fatalf("%s workers=1: %v", id, err)
		}
		eight, err := RunWith(id, detScale, 8)
		if err != nil {
			t.Fatalf("%s workers=8: %v", id, err)
		}
		if !reflect.DeepEqual(one, eight) {
			t.Errorf("%s: results differ between 1 and 8 workers", id)
		}
	}
}

// det5kPreset trims pacing so the 5000-node determinism check stays
// test-sized; the scale5k spec pins the population itself via
// RunSpec.Nodes, so the preset's Nodes field is irrelevant to it.
var det5kPreset = Preset{
	Name:                 "det5k",
	Nodes:                90,
	Reps:                 1,
	Seed:                 13,
	VivaldiConvergeTicks: 40,
	VivaldiAttackTicks:   40,
	MeasureEvery:         20,
	NPSConvergeRounds:    1,
	NPSAttackRounds:      1,
	EvalPeers:            8,
	NPSSolveIterations:   60,
}

// TestDeterminism5kAcrossWorkers extends the worker-count contract to the
// 5000-node scaling spec: the flat-store tick and the sharded measurement
// pass must stay bit-identical between 1 and 8 workers at real scale,
// where the shard count (≈157 shards of 32 nodes) far exceeds the pool.
func TestDeterminism5kAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("5000-node run")
	}
	one, err := RunWith("scale5k", det5kPreset, 1)
	if err != nil {
		t.Fatalf("scale5k workers=1: %v", err)
	}
	eight, err := RunWith("scale5k", det5kPreset, 8)
	if err != nil {
		t.Fatalf("scale5k workers=8: %v", err)
	}
	if !reflect.DeepEqual(one, eight) {
		t.Error("scale5k: results differ between 1 and 8 workers")
	}
}

// TestCampaignDeterminismAcrossWorkers extends the worker-count contract
// to the full chaos campaign — attack under partition, mid-run loss
// phase, churn burst at teardown — on BOTH execution backends: phase
// dispatch happens at measurement barriers on the engine's single
// control thread, and every campaign draw comes from its own derived
// stream, so the worker count must not leak into the series.
func TestCampaignDeterminismAcrossWorkers(t *testing.T) {
	live := detScale
	live.Backend = engine.BackendLive
	for _, bk := range []struct {
		name string
		p    Preset
	}{{"memory", detScale}, {"live", live}} {
		one, err := RunWith("campaignFull", bk.p, 1)
		if err != nil {
			t.Fatalf("%s workers=1: %v", bk.name, err)
		}
		eight, err := RunWith("campaignFull", bk.p, 8)
		if err != nil {
			t.Fatalf("%s workers=8: %v", bk.name, err)
		}
		if !reflect.DeepEqual(one, eight) {
			t.Errorf("campaignFull on %s backend: results differ between 1 and 8 workers", bk.name)
		}
		if len(one.Series) != 1 || len(one.Series[0].Y) == 0 {
			t.Fatalf("campaignFull on %s backend produced no samples", bk.name)
		}
		for k, y := range one.Series[0].Y {
			if math.IsNaN(y) {
				t.Fatalf("campaignFull on %s backend: NaN at sample %d", bk.name, k)
			}
		}
	}
}

// TestCampaignChurnSpec runs the registered attack-removal campaign end
// to end at the bench preset (kept in -short: it is the CI smoke for the
// whole campaign machinery). The attacked series must degrade relative
// to clean while the attack is installed.
func TestCampaignChurnSpec(t *testing.T) {
	r, err := RunWith("campaignChurn", tinyPreset, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 {
		t.Fatalf("campaignChurn series %d, want 3", len(r.Series))
	}
	clean, attacked := r.Series[0], r.Series[1]
	// Sample index 2 is measurement period 2, inside the attack window
	// [1,3).
	if attacked.Y[2] < clean.Y[2]*1.2 {
		t.Errorf("scheduled attack had no effect: attacked %.3f vs clean %.3f at period 2",
			attacked.Y[2], clean.Y[2])
	}
}

// TestLiveLossDegradation is the lossy live sweep: the colluding
// isolation attack at the paper's 1740-node population must keep
// degrading honest accuracy at every ambient loss level — the ratio
// baseline at each sweep point already includes that point's loss, so
// the curve isolates the attack's marginal damage.
func TestLiveLossDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("1740-node live sweep")
	}
	// The colluders' forged delays are realized as actual response
	// latency (~83 ticks in flight at the 3s tick interval), so the
	// attack phase must outlast that lag.
	p := tinyPreset
	p.VivaldiConvergeTicks = 60
	p.VivaldiAttackTicks = 300
	p.MeasureEvery = 60
	p.EvalPeers = 8
	r, err := RunWith("liveLoss", p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 1 {
		t.Fatalf("liveLoss series %d, want 1", len(r.Series))
	}
	s := r.Series[0]
	if len(s.Y) != 4 {
		t.Fatalf("liveLoss sweep points %d, want 4", len(s.Y))
	}
	for k, y := range s.Y {
		if !(y > 1.5) {
			t.Errorf("loss=%g%%: final error ratio %.3f, want > 1.5 (attack must degrade accuracy under loss)",
				s.X[k], y)
		}
	}
}

// TestBackendEquivalence runs the same scenario on the dense and model
// substrates and requires bit-identical series: both backends evaluate
// the same per-pair kernel, dense just caches the results. (The packed
// backend is equivalent within float32 rounding — asserted at the RTT
// level in internal/latency.)
func TestBackendEquivalence(t *testing.T) {
	dense := detScale
	dense.Substrate = "dense"
	model := detScale
	model.Substrate = "model"
	a, err := RunWith("fig09", dense, 2)
	if err != nil {
		t.Fatalf("dense: %v", err)
	}
	b, err := RunWith("fig09", model, 2)
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("fig09 series differ between dense and model substrates")
	}
}

// det25kPreset trims pacing so the 25 000-node run stays test-sized; the
// scale25k spec pins both the population (RunSpec.Nodes) and the model
// substrate (RunSpec.Substrate), so only cadence comes from here.
var det25kPreset = Preset{
	Name:                 "det25k",
	Nodes:                90,
	Reps:                 1,
	Seed:                 17,
	VivaldiConvergeTicks: 8,
	VivaldiAttackTicks:   8,
	MeasureEvery:         4,
	NPSConvergeRounds:    1,
	NPSAttackRounds:      1,
	EvalPeers:            4,
	NPSSolveIterations:   60,
}

// TestDeterminism25kAcrossWorkers runs the scale25k scenario end-to-end on
// the model substrate — 25 000 nodes in ~600 KB of RTT state — and asserts
// the workers-1-vs-8 bit-identity contract at that scale. It is NOT
// skipped in -short mode: the model backend is what makes a 25k-node run
// cheap enough for every CI tier, which is exactly the property under
// test.
func TestDeterminism25kAcrossWorkers(t *testing.T) {
	one, err := RunWith("scale25k", det25kPreset, 1)
	if err != nil {
		t.Fatalf("scale25k workers=1: %v", err)
	}
	eight, err := RunWith("scale25k", det25kPreset, 8)
	if err != nil {
		t.Fatalf("scale25k workers=8: %v", err)
	}
	if !reflect.DeepEqual(one, eight) {
		t.Error("scale25k: results differ between 1 and 8 workers")
	}
	if len(one.Series) != 2 {
		t.Fatalf("scale25k series %d, want 2", len(one.Series))
	}
	for _, s := range one.Series {
		for k, y := range s.Y {
			if math.IsNaN(y) {
				t.Fatalf("series %q: NaN at sample %d", s.Label, k)
			}
		}
	}
}

// TestAttack25kDegrades is the attack-at-scale probe: the fig09-style
// colluding isolation curve at 25 000 nodes on the model substrate must
// still show population-level degradation (error ratio above the clean
// reference) — the disruption phenomenon survives the backend swap and
// the 14× population jump.
func TestAttack25kDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("25k-node attack run")
	}
	p := det25kPreset
	p.VivaldiConvergeTicks = 60
	p.VivaldiAttackTicks = 60
	p.MeasureEvery = 20
	r, err := RunWith("attack25k", p, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Series {
		last := s.Y[len(s.Y)-1]
		if !(last > 1.05) {
			t.Errorf("series %q: final error ratio %.3f, want > 1.05 (attack must degrade accuracy)", s.Label, last)
		}
	}
}

// TestLiveDeterminism25kAcrossWorkers runs the live25k scenario — 25 000
// daemon nodes exchanging wire-protocol packets over the virtual UDP
// network, one-way delays answered by the model substrate through the
// adapter's gather cache — and asserts the workers-1-vs-8 bit-identity
// contract over real message exchange at that scale. The entire live run
// executes on the single-threaded virtual clock regardless of the worker
// count, so the contract covers the parallel measurement/reduction path
// around it. The same run must show fig09-style degradation: the target's
// error ratio ends above the clean reference once the colluders' forged
// replies (realized as actual response delays) land.
func TestLiveDeterminism25kAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("25k-node live-backend run")
	}
	// The colluders' lies are realized as actual response delays of tens
	// of virtual seconds (~17 ticks), so unlike the in-memory attack25k
	// probe the attack phase must outlast that in-flight lag by enough
	// ticks for the repel updates to accumulate.
	p := det25kPreset
	p.VivaldiConvergeTicks = 30
	p.VivaldiAttackTicks = 105
	p.MeasureEvery = 35
	one, err := RunWith("live25k", p, 1)
	if err != nil {
		t.Fatalf("live25k workers=1: %v", err)
	}
	eight, err := RunWith("live25k", p, 8)
	if err != nil {
		t.Fatalf("live25k workers=8: %v", err)
	}
	if !reflect.DeepEqual(one, eight) {
		t.Error("live25k: results differ between 1 and 8 workers")
	}
	if len(one.Series) != 1 {
		t.Fatalf("live25k series %d, want 1", len(one.Series))
	}
	s := one.Series[0]
	if len(s.Y) == 0 {
		t.Fatal("live25k produced no samples")
	}
	for k, y := range s.Y {
		if math.IsNaN(y) {
			t.Fatalf("series %q: NaN at sample %d", s.Label, k)
		}
	}
	if last := s.Y[len(s.Y)-1]; !(last > 1.05) {
		t.Errorf("live25k final error ratio %.3f, want > 1.05 (attack must degrade accuracy over live UDP)", last)
	}
}

// TestLiveAttackSpec runs the registered live-backend colluding-isolation
// scenario end to end at the bench preset: real wire-protocol exchange
// over the virtual network, attack injected at the wire layer, reduced by
// the unchanged figure pipeline. The virtual clock keeps this fast.
func TestLiveAttackSpec(t *testing.T) {
	r, err := RunWith("liveAttack", tinyPreset, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 2 {
		t.Fatalf("series %d, want 2", len(r.Series))
	}
	for _, s := range r.Series {
		last := s.Y[len(s.Y)-1]
		if !(last > 2) {
			t.Errorf("series %q: final error ratio %.3f, want > 2 (live attack must degrade accuracy)", s.Label, last)
		}
	}
}

func TestFig01QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure run")
	}
	r, err := RunWith("fig01", tinyPreset, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 5 {
		t.Fatalf("fig01 series %d, want 5", len(r.Series))
	}
	// Headline claim: more attackers, worse ratio (compare 10% vs 75% at
	// the end of the run).
	last := func(s Series) float64 { return s.Y[len(s.Y)-1] }
	if last(r.Series[4]) < last(r.Series[0]) {
		t.Fatalf("75%% attackers (%v) not worse than 10%% (%v)",
			last(r.Series[4]), last(r.Series[0]))
	}
	if last(r.Series[4]) < 3 {
		t.Fatalf("75%% disorder ratio %v, want severe degradation", last(r.Series[4]))
	}
}

func TestFig14QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure run")
	}
	r, err := RunWith("fig14", tinyPreset, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 2*len(npsFractions) {
		t.Fatalf("fig14 series %d", len(r.Series))
	}
	// Security ON at 20% must beat security OFF at 20% (filter works in
	// the minority regime).
	var offAt20, onAt20 float64
	for _, s := range r.Series {
		switch s.Label {
		case "sec=false 20%":
			offAt20 = s.Y[len(s.Y)-1]
		case "sec=true 20%":
			onAt20 = s.Y[len(s.Y)-1]
		}
	}
	if onAt20 == 0 || offAt20 == 0 {
		t.Fatal("expected series not found")
	}
	if onAt20 > offAt20*1.2 {
		t.Fatalf("security on (%.3f) much worse than off (%.3f) at 20%%", onAt20, offAt20)
	}
}

func TestFig10TargetTracked(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure run")
	}
	r, err := RunWith("fig10", tinyPreset, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 2 {
		t.Fatalf("fig10 series %d, want 2", len(r.Series))
	}
	for _, s := range r.Series {
		for k, y := range s.Y {
			if math.IsNaN(y) {
				t.Fatalf("series %q: target error NaN at sample %d", s.Label, k)
			}
		}
	}
}

func TestFig25VictimSeriesNonEmpty(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure run")
	}
	r, err := RunWith("fig25", tinyPreset, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 6 {
		t.Fatalf("fig25 series %d, want 6", len(r.Series))
	}
	for _, s := range r.Series {
		if len(s.Y) == 0 {
			t.Fatalf("series %q empty", s.Label)
		}
	}
}

func TestPercentLabel(t *testing.T) {
	if percentLabel(0.3) != "30%" {
		t.Fatal(percentLabel(0.3))
	}
}

// TestNPSDeterminism25kAcrossWorkers extends the worker-count contract to
// the layered system at scale: npsScale25k runs sampled landmark
// selection, sharded construction, and the two-phase positioning round
// (serial probe sweep, sharded filter + solve on per-shard scratch) at
// 25 000 nodes, and the results must be bit-identical between 1 and 8
// workers. Like TestDeterminism25kAcrossWorkers it stays in -short: the
// model substrate and the trimmed solve budget keep the run test-sized,
// and the sharded NPS paths are exactly what the trim does not bypass.
func TestNPSDeterminism25kAcrossWorkers(t *testing.T) {
	p := det25kPreset
	p.NPSSolveIterations = 32
	one, err := RunWith("npsScale25k", p, 1)
	if err != nil {
		t.Fatalf("npsScale25k workers=1: %v", err)
	}
	eight, err := RunWith("npsScale25k", p, 8)
	if err != nil {
		t.Fatalf("npsScale25k workers=8: %v", err)
	}
	if !reflect.DeepEqual(one, eight) {
		t.Error("npsScale25k: results differ between 1 and 8 workers")
	}
	if len(one.Series) != 1 || len(one.Series[0].Y) == 0 {
		t.Fatalf("npsScale25k produced no samples")
	}
	for k, y := range one.Series[0].Y {
		if math.IsNaN(y) {
			t.Fatalf("npsScale25k: NaN at sample %d", k)
		}
	}
}

// cdfMedian reads the median off a cdfSeries: the X value where the
// cumulative fraction first reaches one half.
func cdfMedian(s Series) float64 {
	for k, y := range s.Y {
		if y >= 0.5 {
			return s.X[k]
		}
	}
	return math.NaN()
}

// TestNPSAttack25kDegrades replays the fig21 check at 25 000 nodes: the
// sophisticated anti-detection mix must shift the final-error CDF right of
// the clean run, with more attackers shifting it further — the paper's
// degradation ordering (clean < 10% < 30%) at 14× its population.
func TestNPSAttack25kDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("25k-node attack run")
	}
	p := det25kPreset
	p.NPSSolveIterations = 32
	r, err := RunWith("npsAttack25k", p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 {
		t.Fatalf("npsAttack25k series %d, want 3", len(r.Series))
	}
	clean := cdfMedian(r.Series[0])
	ten := cdfMedian(r.Series[1])
	thirty := cdfMedian(r.Series[2])
	if !(ten > clean) {
		t.Errorf("10%% attackers: median error %.4f not above clean %.4f", ten, clean)
	}
	if !(thirty > ten) {
		t.Errorf("30%% attackers: median error %.4f not above 10%% %.4f", thirty, ten)
	}
}
