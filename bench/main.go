// Command bench is the repository's benchmark: six named workloads, the
// end-to-end metrics a user of the system would see (each with a fixed
// regression bound), per-layer metrics from a separate traced run, and
// built-in output checks. BENCHMARK.json at the repository root declares
// the names; bench/README.md explains them.
//
//	go run ./bench                          every workload, then the traced run
//	go run ./bench -workload serve_read     one workload
//	go run ./bench -workload serve_read -trace 1
//	go run ./bench -list                    every metric with unit and bound
//	go run ./bench -compare old.json new.json
//
// A run with -workload prints, as the last line of standard output, the
// JSON object the benchmark driver reads: correct, attempted, failed and
// metrics (the end-to-end set, or with -trace 1 the per-layer set).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
)

func main() {
	var (
		workload   = flag.String("workload", "", "run one workload (default: all, each in its own process)")
		seed       = flag.Int64("seed", 1, "seed of the benchmark's own inputs: query streams, exile choice")
		seconds    = flag.Float64("seconds", 10, "seconds of timed iterations or windows per workload")
		trace      = flag.Int("trace", 0, "1 runs the traced layer suite and reports the per-layer metrics")
		smoke      = flag.Bool("smoke", false, "tiny sizes, one iteration (what the tests drive)")
		out        = flag.String("out", "", "result ledger (default bench/out/result.json); trace.jsonl is written beside it")
		appendTo   = flag.Bool("append", false, "append to -out instead of replacing it")
		list       = flag.Bool("list", false, "print every metric with its unit and bound")
		compare    = flag.Bool("compare", false, "compare two result ledgers: -compare old.json new.json")
		commit     = flag.String("commit", "", "commit id to record (default: the binary's VCS stamp)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run")
		memprofile = flag.String("memprofile", "", "write an allocation profile at exit")
	)
	flag.Parse()

	switch {
	case *list:
		printList(os.Stdout)
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare old.json new.json"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		*out = filepath.Join(root, "bench", "out", "result.json")
	}
	w := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(w)
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
		smoke: *smoke, workers: w, root: root, commit: *commit,
		traceOut: filepath.Join(filepath.Dir(*out), "trace.jsonl"),
	}

	if *workload == "" {
		if err := runAll(cfg, *out, *appendTo); err != nil {
			fatal(err)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	rec, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if err := writeResult(*out, rec, *appendTo); err != nil {
		fatal(err)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	printTable(os.Stdout, rec, defs)
	line, err := contractLine(rec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	if rec.Failed > 0 {
		pprof.StopCPUProfile()
		os.Exit(1)
	}
}

// run measures one workload, or with cfg.trace the layer suite.
func run(cfg config) (*runRecord, error) {
	if _, ok := workloadByName(cfg.workload); !ok {
		return nil, fmt.Errorf("unknown workload %q (see -list)", cfg.workload)
	}
	rec := &runRecord{
		Workload: cfg.workload, Trace: cfg.trace, Seed: cfg.seed, Seconds: cfg.seconds, Smoke: cfg.smoke,
		Host:    collectHost(cfg.commit, cfg.workers),
		Sizes:   map[string]float64{},
		Metrics: map[string]metricValue{},
	}
	sz := sizesFor(cfg.smoke)
	var err error
	switch {
	case cfg.trace:
		err = runTrace(cfg, sz, rec)
	case cfg.workload == "serve_read" || cfg.workload == "serve_exiled":
		err = runServe(cfg, sz, rec)
	default:
		err = runSim(cfg, sz, rec)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return rec, nil
}

// runAll runs every workload and then the traced suite, each in a process
// of its own — the way the driver runs them — so no workload inherits
// another's substrate cache or heap. Every child appends to the ledger.
func runAll(cfg config, out string, appendTo bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if !appendTo {
		if err := os.Remove(out); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	type job struct {
		workload string
		trace    int
	}
	var jobs []job
	for _, w := range workloads {
		jobs = append(jobs, job{w.Name, 0})
	}
	jobs = append(jobs, job{workloads[0].Name, 1})
	failed := false
	for _, j := range jobs {
		args := []string{
			"-workload", j.workload, "-trace", strconv.Itoa(j.trace),
			"-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			"-out", out, "-append", "-commit", cfg.commit,
		}
		if cfg.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Dir = cfg.root
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			if _, exited := err.(*exec.ExitError); !exited {
				return err
			}
			failed = true
		}
	}
	if failed {
		return fmt.Errorf("at least one workload failed its output checks")
	}
	return nil
}

func printList(w *os.File) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-14s %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (untraced run; bound = allowed relative worsening of the median):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-18s %-6s %-6s bound %4.0f%%  %s\n", m.Name, m.Unit, m.Better, m.Bound*100, m.Doc)
	}
	fmt.Fprintln(w, "  failed_frac        -      lower  bound    0    failed / attempted output checks (the result's own keys)")
	fmt.Fprintln(w, "per-layer metrics (-trace 1; no bound; -> the end-to-end metric each should move):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-34s %-6s %-6s -> %s\n", m.Name, m.Unit, m.Better, m.Moves)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
