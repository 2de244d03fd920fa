// Command vna-sim regenerates the paper's evaluation figures through the
// unified scenario engine.
//
// Usage:
//
//	vna-sim -list
//	vna-sim -scenario fig01 [-preset bench|quick|standard|full] [-workers N] [-format table|csv|plot]
//	vna-sim -scenario fig09 -substrate packed
//	vna-sim -scenario all -preset quick -out results/
//
// Each scenario prints labelled data series (the rows/curves of the
// corresponding paper figure) plus notes with reference values such as the
// clean-system error and the random-coordinate baseline. -workers sets the
// engine's worker-pool width (0 = GOMAXPROCS); it changes wall-clock time
// only — at a fixed seed the produced series are bit-identical for any
// worker count. -substrate selects the latency backend (dense, packed or
// model) for runs that do not pin one; the run banner reports the
// selected backend and its resident RTT-state size, and what the engine
// planned: how many units run and how many clean convergences they share.
// -cpuprofile / -memprofile write pprof profiles of the run. -exp is
// accepted as an alias of -scenario.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/latency"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/vivaldi"
)

func main() {
	var (
		scenarioFlag = flag.String("scenario", "", "scenario name (fig01..fig26, extA..), comma-separated list, or 'all'")
		expFlag      = flag.String("exp", "", "alias of -scenario")
		presetFlag   = flag.String("preset", "quick", "scale preset: bench, quick, standard or full")
		workersFlag  = flag.Int("workers", 0, "worker pool width (0 = GOMAXPROCS)")
		subFlag      = flag.String("substrate", "", "latency backend: dense, packed or model (default: per-scenario, dense)")
		backFlag     = flag.String("backend", "", "execution backend: memory or live (default: per-scenario, memory)")
		formatFlag   = flag.String("format", "table", "output format: table, csv or plot")
		outFlag      = flag.String("out", "", "output directory (default: stdout)")
		listFlag     = flag.Bool("list", false, "list registered scenarios and exit")
		cpuFlag      = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memFlag      = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()

	if *listFlag {
		for _, sp := range engine.List() {
			kind := string(sp.System)
			if sp.Custom != nil {
				kind = "custom"
			}
			fmt.Printf("%-20s %-22s %-8s %-7s %-7s %-4s %-8s %s\n",
				sp.Name, sp.Figure, kind, specSubstrate(sp), specBackend(sp), specCampaign(sp),
				specHardening(sp), sp.Title)
		}
		return
	}
	sel := *scenarioFlag
	if sel == "" {
		sel = *expFlag
	}
	if sel == "" {
		fmt.Fprintln(os.Stderr, "vna-sim: -scenario is required (or use -list); e.g. -scenario fig01 or -scenario all")
		os.Exit(2)
	}
	preset, err := experiment.PresetByName(*presetFlag)
	if err != nil {
		fatal(err)
	}
	backend, err := latency.ParseBackend(*subFlag)
	if err != nil {
		fatal(err)
	}
	if *subFlag != "" {
		// The preset-level override applies to every run that does not
		// pin its own backend (a 25k spec keeps its model substrate).
		preset.Substrate = backend
	}
	execBackend, err := engine.ParseExecBackend(*backFlag)
	if err != nil {
		fatal(err)
	}
	if *backFlag != "" {
		// Same pattern as -substrate: runs that pin a backend keep it,
		// everything else executes over the requested one (`-scenario
		// fig09 -backend live` replays the figure over live virtual UDP).
		preset.Backend = execBackend
	}
	write, ext, err := writer(*formatFlag)
	if err != nil {
		fatal(err)
	}
	stopProfiles, err := prof.Start(*cpuFlag, *memFlag)
	if err != nil {
		fatal(err)
	}

	// The plan is checked before anything runs: a scenario the preset's
	// backend cannot honour (under -backend live: NPS, custom runners) is
	// skipped by "all" and fails upfront when named, instead of aborting
	// mid-loop with partial output.
	var ids []string
	if sel == "all" {
		for _, sp := range engine.List() {
			if _, _, _, err := engine.Plan(sp, preset); err != nil {
				fmt.Fprintf(os.Stderr, "skipping %v\n", err)
				continue
			}
			ids = append(ids, sp.Name)
		}
	} else {
		for _, id := range strings.Split(sel, ",") {
			id = strings.TrimSpace(id)
			if sp, ok := engine.Get(id); ok {
				if _, _, _, err := engine.Plan(sp, preset); err != nil {
					fatal(err)
				}
			}
			ids = append(ids, id)
		}
	}

	for _, id := range ids {
		start := time.Now()
		kind, bytes := runSubstrate(id, preset)
		fmt.Fprintf(os.Stderr, "running %s at preset %s (workers=%d, substrate=%s, backend=%s, ~%s resident)...\n",
			id, preset.Name, *workersFlag, kind, runBackend(id, preset), latency.FormatBytes(bytes))
		for _, tl := range campaignTimelines(id) {
			fmt.Fprintf(os.Stderr, "  campaign %s\n", tl)
		}
		if sp, ok := engine.Get(id); ok && sp.Custom == nil {
			units, groups, shared, _ := engine.Plan(sp, preset)
			fmt.Fprintf(os.Stderr, "  plan: %d units in %d groups: %d clean convergences shared\n", units, groups, shared)
		}
		result, err := experiment.RunWith(id, preset, *workersFlag)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "done %s in %v\n", id, time.Since(start).Round(time.Millisecond))

		out := io.Writer(os.Stdout)
		if *outFlag != "" {
			if err := os.MkdirAll(*outFlag, 0o755); err != nil {
				fatal(err)
			}
			f, err := os.Create(filepath.Join(*outFlag, id+ext))
			if err != nil {
				fatal(err)
			}
			if err := write(f, result); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			continue
		}
		if err := write(out, result); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if err := stopProfiles(); err != nil {
		fatal(err)
	}
}

func writer(format string) (func(io.Writer, *experiment.Result) error, string, error) {
	switch format {
	case "table":
		return report.WriteTable, ".txt", nil
	case "csv":
		return report.WriteCSV, ".csv", nil
	case "plot":
		return func(w io.Writer, r *experiment.Result) error {
			return report.WritePlot(w, r, 72, 20)
		}, ".txt", nil
	}
	return nil, "", fmt.Errorf("unknown format %q (want table, csv or plot)", format)
}

// specSubstrate names the backend a scenario's runs pin (-list column):
// "dense" unless some run selects packed or model.
func specSubstrate(sp engine.ScenarioSpec) string {
	kind := latency.BackendDense
	for _, s := range sp.Series {
		for _, r := range s.Runs {
			if r.Substrate != "" {
				kind = r.Substrate
			}
		}
	}
	return string(kind)
}

// specCampaign summarises a scenario's campaign schedules (-list column):
// "4ph" when some run attaches a 4-phase schedule, "-" otherwise.
func specCampaign(sp engine.ScenarioSpec) string {
	phases := 0
	for _, s := range sp.Series {
		for _, r := range s.Runs {
			if r.Schedule != nil && len(r.Schedule.Phases) > phases {
				phases = len(r.Schedule.Phases)
			}
		}
	}
	if phases == 0 {
		return "-"
	}
	return fmt.Sprintf("%dph", phases)
}

// campaignTimelines renders each distinct phase timeline a scenario's
// runs schedule, labelled by series — the run banner's campaign lines.
func campaignTimelines(id string) []string {
	sp, ok := engine.Get(id)
	if !ok {
		return nil
	}
	var out []string
	seen := map[string]bool{}
	for _, s := range sp.Series {
		for _, r := range s.Runs {
			if r.Schedule == nil {
				continue
			}
			line := fmt.Sprintf("%q: %s", s.Label, r.Schedule.Timeline())
			if !seen[line] {
				seen[line] = true
				out = append(out, line)
			}
		}
	}
	return out
}

// specHardening summarises a scenario's hardened-Vivaldi configurations
// (-list column): "-" when every run is plain, "5cfg" when the runs span
// 5 distinct hardening configurations (the defense × attack grids).
func specHardening(sp engine.ScenarioSpec) string {
	seen := map[vivaldi.Hardening]bool{}
	for _, s := range sp.Series {
		for _, r := range s.Runs {
			if r.Harden.Enabled() {
				seen[r.Harden] = true
			}
		}
	}
	if len(seen) == 0 {
		return "-"
	}
	return fmt.Sprintf("%dcfg", len(seen))
}

// specBackend names the execution backend a scenario's runs pin (-list
// column): "memory" unless some run selects live.
func specBackend(sp engine.ScenarioSpec) string {
	kind := engine.BackendMemory
	for _, s := range sp.Series {
		for _, r := range s.Runs {
			if r.Backend != "" {
				kind = r.Backend
			}
		}
	}
	return string(kind)
}

// runBackend reports the execution backend a scenario resolves to at the
// preset — what the run banner shows.
func runBackend(id string, p experiment.Preset) engine.ExecBackend {
	sp, ok := engine.Get(id)
	if !ok || sp.Custom != nil {
		return engine.BackendMemory
	}
	kind := engine.ResolveBackend(engine.RunSpec{}, p)
	for _, s := range sp.Series {
		for _, r := range s.Runs {
			if b := engine.ResolveBackend(r, p); b != engine.BackendMemory {
				kind = b
			}
		}
	}
	return kind
}

// runSubstrate reports the backend and resident RTT-state size of a
// scenario's biggest-footprint run at the preset — what the run banner
// shows. Resolution is the engine's own (engine.ResolveSubstrate);
// custom runners go through engine.BaseMatrix and are always dense.
func runSubstrate(id string, p experiment.Preset) (latency.BackendKind, int64) {
	sp, ok := engine.Get(id)
	if !ok || sp.Custom != nil {
		return latency.BackendDense, latency.BackendBytes(latency.BackendDense, p.Nodes)
	}
	kind, bytes := latency.BackendDense, int64(0)
	for _, s := range sp.Series {
		for _, r := range s.Runs {
			k, n := engine.ResolveSubstrate(r, p)
			if b := latency.BackendBytes(k, n); b > bytes {
				kind, bytes = k, b
			}
		}
	}
	if bytes == 0 {
		bytes = latency.BackendBytes(kind, p.Nodes)
	}
	return kind, bytes
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vna-sim:", err)
	os.Exit(1)
}
