package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/vivaldi"
)

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the tables in metrics.go")

const benchmarkJSON = "../BENCHMARK.json"

// TestBenchmarkJSON keeps the root BENCHMARK.json in step with the tables
// the program measures by.
func TestBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(declaration(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile(benchmarkJSON, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is out of step with bench/metrics.go; run go test ./bench -run TestBenchmarkJSON -update")
	}
}

// TestDeclaredNames holds the declaration to the contract's limits.
func TestDeclaredNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) != 6 {
		t.Errorf("%d workloads, want 6", len(workloads))
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, contract allows 128", len(perLayer))
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract", m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		use(m.Name)
		if m.Layer == "" || m.Moves == "" || !strings.HasPrefix(m.Name, m.Layer+".") {
			t.Errorf("%s: a per-layer metric names its layer and what it should move", m.Name)
		}
	}
}

func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 1, seconds: 0, trace: trace, smoke: true, workers: 2,
		root: "..", traceOut: filepath.Join(t.TempDir(), "trace.jsonl"), commit: "test",
	}
}

// checkEmitted asserts a run emitted exactly the declared metrics, each
// finite and under its declared unit, and that the driver's line carries
// them.
func checkEmitted(t *testing.T, rec *runRecord, defs []metricDef) {
	t.Helper()
	if rec.Failed != 0 || rec.Attempted == 0 {
		t.Errorf("%s: %d of %d checks failed: %v", rec.Workload, rec.Failed, rec.Attempted, rec.Failures)
	}
	declared := map[string]string{}
	for _, d := range defs {
		declared[d.Name] = d.Unit
		m, ok := rec.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared metric %s was not emitted", rec.Workload, d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", rec.Workload, d.Name, m.Value)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s emitted in %q, declared in %q", rec.Workload, d.Name, m.Unit, d.Unit)
		}
	}
	for name := range rec.Metrics {
		if _, ok := declared[name]; !ok {
			t.Errorf("%s: undeclared metric %s was emitted", rec.Workload, name)
		}
	}
	line, err := contractLine(rec)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(line, &obj); err != nil {
		t.Fatal(err)
	}
	if len(obj) != 4 || obj["correct"] == nil || obj["attempted"] == nil || obj["failed"] == nil || obj["metrics"] == nil {
		t.Errorf("%s: result line has keys other than correct, attempted, failed, metrics: %s", rec.Workload, line)
	}
}

// TestSmokeWorkloads drives every workload at -smoke sizes.
func TestSmokeWorkloads(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "result.json")
	for _, w := range workloads {
		rec, err := run(smokeConfig(t, w.Name, false))
		if err != nil {
			t.Fatal(err)
		}
		checkEmitted(t, rec, endToEnd)
		if err := writeResult(ledger, rec, true); err != nil {
			t.Fatal(err)
		}
	}
	rf, err := readResults(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Runs) != len(workloads) {
		t.Errorf("ledger holds %d runs, want %d", len(rf.Runs), len(workloads))
	}
	for _, r := range rf.Runs {
		if r.Host.GoVersion == "" || r.Host.NProc == 0 || r.Host.GOMAXPROCS == 0 || r.Host.Commit == "" || r.Host.CPUModel == "" {
			t.Errorf("%s: incomplete host record %+v", r.Workload, r.Host)
		}
		if m := r.Metrics["wall_s"]; m.N == 0 || len(m.Samples) != m.N {
			t.Errorf("%s: wall_s keeps %d raw samples of %d", r.Workload, len(m.Samples), m.N)
		}
	}
}

// TestSmokeTrace drives the traced run at -smoke sizes.
func TestSmokeTrace(t *testing.T) {
	cfg := smokeConfig(t, workloads[0].Name, true)
	rec, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkEmitted(t, rec, perLayer)
	f, err := os.ReadFile(cfg.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(f), []byte("\n"))
	var first span
	if err := json.Unmarshal(lines[0], &first); err != nil {
		t.Fatal(err)
	}
	if first.ID != 1 || first.Layer == "" || first.Name == "" || first.EndNS < first.StartNS {
		t.Errorf("first span of trace.jsonl is %+v", first)
	}
	if len(lines) < int(rec.Sizes["spans"]) {
		t.Errorf("trace.jsonl has %d lines for %v spans", len(lines), rec.Sizes["spans"])
	}
}

// TestCheckerCatchesCorruption shows the output checks can fail: one
// flipped CSV hash and one altered k-NN answer each raise failed_frac.
func TestCheckerCatchesCorruption(t *testing.T) {
	sz := sizesFor(true)

	w, err := simWorkloadFor("figs_vivaldi", sz)
	if err != nil {
		t.Fatal(err)
	}
	w.scenarios = w.scenarios[:1]
	ref, err := w.iteration(2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := w.iteration(1)
	if err != nil {
		t.Fatal(err)
	}
	rec := &runRecord{}
	rec.checkIteration(0, ref, got)
	if rec.failedFrac() != 0 {
		t.Fatalf("identical reruns failed the hash check: %v", rec.Failures)
	}
	got[0][0] ^= 1
	rec.checkIteration(1, ref, got)
	if rec.failedFrac() != 0.5 {
		t.Errorf("failed_frac = %v after one of two iterations was corrupted", rec.failedFrac())
	}

	pool := engine.NewPool(2)
	cs, err := servePopulation(sz, vivaldi.Config{}, pool)
	if err != nil {
		t.Fatal(err)
	}
	sb := newServeBench(buildRing(cs, pool, sz.serveTicks), genStream(1, sz.streamLen, sz.serveNodes), 1, probePeriod)
	res := sb.measure(sz.publishes)
	recs := sb.readers[0].knnRecs
	if len(recs) == 0 {
		t.Fatal("the window kept no k-NN answer to verify")
	}
	recs[0].res[0].ID++
	sb.verify(&res)
	if res.failed != 1 || res.checked < 2 {
		t.Errorf("%d of %d kept answers failed after one was altered", res.failed, res.checked)
	}
	rec = &runRecord{Metrics: map[string]metricValue{}, Sizes: map[string]float64{}}
	recordWindows(rec, []windowResult{res})
	if rec.failedFrac() <= 0 {
		t.Errorf("failed_frac = %v after a k-NN answer was altered", rec.failedFrac())
	}
}

// TestAPISurface keeps the benchmark off the APIs ROADMAP direction 2 may
// delete: it calls only what the engine and the CLIs themselves call.
func TestAPISurface(t *testing.T) {
	deny := regexp.MustCompile(strings.Join([]string{
		`vivaldi\.(System|Runner|NewSystem|NewRunner)\b`,
		`optimize\.Minimize\b`,
		`gnp\.PositionHost`,
		`metrics\.(NodeErrors|Median)`,
		`serve\.RunLoadGen\b`,
		`\.\(engine\.`, // capability interfaces by type assertion
	}, "|"))
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if m := deny.FindString(line); m != "" {
				t.Errorf("%s:%d references %s", f, i+1, m)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q3 != 5.25 {
		t.Errorf("quartiles = %v, %v; Python gives 1.75, 5.25", q1, q3)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	q1, q3 = quartiles([]float64{40, 10, 20})
	if q1 != 10 || q3 != 40 {
		t.Errorf("quartiles = %v, %v; Python gives 10, 40", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestJudge(t *testing.T) {
	lowerIsBetter := metricDef{Name: "wall_s", Better: lower, Bound: 0.10}
	higherIsBetter := metricDef{Name: "qps", Better: higher, Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name     string
		m        metricDef
		old, new []float64
		want     string
	}{
		{"same", lowerIsBetter, steady, steady, verdictWithin},
		{"5% slower", lowerIsBetter, steady, scale(steady, 1.05), verdictWithin},
		{"20% slower", lowerIsBetter, steady, scale(steady, 1.20), verdictWorse},
		{"20% faster", lowerIsBetter, steady, scale(steady, 0.80), verdictBetter},
		{"20% more qps", higherIsBetter, steady, scale(steady, 1.20), verdictBetter},
		{"20% less qps", higherIsBetter, steady, scale(steady, 0.80), verdictWorse},
		{"noise wider than the bound", lowerIsBetter, []float64{1, 1.4, 0.7, 1.2, 0.9}, []float64{1.3, 0.8, 1.5, 1.0, 1.2}, verdictUnresolved},
		{"noisy but every run better", lowerIsBetter, []float64{1, 1.4, 0.7, 1.2, 0.9}, []float64{0.5, 0.3, 0.6, 0.4, 0.5}, verdictBetter},
		{"one side empty", lowerIsBetter, steady, nil, verdictMissing},
	} {
		if got, _, _ := judge(c.m, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestCompareFiles runs -compare over two ledgers: a slower wall_s and a
// rise in failed_frac must each be reported as worse.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall float64, failed int) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 3; i++ {
			rec := &runRecord{Workload: "vivaldi_5k", Attempted: 10, Failed: failed, Metrics: map[string]metricValue{}}
			rec.set("wall_s", "s", wall*(1+0.01*float64(i)))
			if err := writeResult(path, rec, true); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base.json", 1.0, 0)
	for _, c := range []struct {
		name  string
		path  string
		worse bool
		row   string
	}{
		{"same", write("same.json", 1.0, 0), false, verdictWithin},
		{"slower", write("slower.json", 1.3, 0), true, verdictWorse},
		{"failing", write("failing.json", 1.0, 1), true, verdictWorse},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, base, c.path)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse || !strings.Contains(out.String(), c.row) {
			t.Errorf("%s: worse = %v, table:\n%s", c.name, worse, out.String())
		}
	}
}
