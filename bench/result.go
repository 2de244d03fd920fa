package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// metricValue is one reported metric: the headline value plus what a
// reader needs to trust it.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n,omitempty"` // samples behind Value
	Q1      float64   `json:"q1,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

type hostInfo struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

// runRecord is one run of one workload (or of the traced layer suite).
type runRecord struct {
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Smoke     bool                   `json:"smoke,omitempty"`
	Host      hostInfo               `json:"host"`
	Sizes     map[string]float64     `json:"sizes"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// check counts one verified operation; a false ok records why.
func (r *runRecord) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		if len(r.Failures) < 20 {
			r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
		}
	}
}

// set records a single-sample metric.
func (r *runRecord) set(name, unit string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit, N: 1}
}

// setMedian records a metric as the median of its samples, keeping the
// raw samples and quartiles.
func (r *runRecord) setMedian(name, unit string, samples []float64) {
	q1, q3 := quartiles(samples)
	r.Metrics[name] = metricValue{
		Value: median(samples), Unit: unit, N: len(samples), Q1: q1, Q3: q3,
		Samples: append([]float64(nil), samples...),
	}
}

// setMin records a count as the smallest of its samples: the runtime's own
// bookkeeping (timers, collector workers) only ever adds to what the
// measured code allocates.
func (r *runRecord) setMin(name, unit string, samples []float64) {
	r.setMedian(name, unit, samples)
	m := r.Metrics[name]
	m.Value, _ = minMax(samples)
	r.Metrics[name] = m
}

func (r *runRecord) failedFrac() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// resultFile is the on-disk ledger: every run appended in order, so a
// paired comparison accumulates its repetitions in one file per side.
type resultFile struct {
	Schema int         `json:"schema"`
	Runs   []runRecord `json:"runs"`
}

func readResults(path string) (resultFile, error) {
	var rf resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("parse %s: %w", path, err)
	}
	return rf, nil
}

// writeResult stores rec in path, after the runs already there when
// appendTo is set.
func writeResult(path string, rec *runRecord, appendTo bool) error {
	rf := resultFile{Schema: 1}
	if appendTo {
		if prev, err := readResults(path); err == nil {
			rf = prev
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	rf.Runs = append(rf.Runs, *rec)
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// contractLine is the driver's result object: exactly these four keys, the
// metrics reduced to value and unit.
func contractLine(rec *runRecord) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, map[string]mv{}}
	for name, m := range rec.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
		out.Metrics[name] = mv{m.Value, m.Unit}
	}
	return json.Marshal(out)
}

// printTable writes the human-readable form of a run, metrics in declared
// order.
func printTable(w io.Writer, rec *runRecord, defs []metricDef) {
	fmt.Fprintf(w, "workload %s (seed %d, trace %v): %d checked, %d failed\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, d := range defs {
		m, ok := rec.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-34s %14.6g %-6s", d.Name, m.Value, m.Unit)
		if m.N > 1 {
			line += fmt.Sprintf(" n=%d q1=%.6g q3=%.6g", m.N, m.Q1, m.Q3)
		}
		fmt.Fprintln(w, line)
	}
}

func collectHost(commit string, w int) hostInfo {
	h := hostInfo{
		Commit:     commit,
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: w,
		CPUModel:   "unknown",
	}
	if h.Commit == "" {
		h.Commit = "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					h.Commit = s.Value
				}
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// repoRoot walks up from the working directory to the module root, so the
// benchmark finds the repository's goldens and its own out/ directory
// whether started by `go run ./bench` at the root or by `go test` in
// bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}
