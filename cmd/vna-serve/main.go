// Command vna-serve runs the coordinate query service against a live
// simulated population and measures what it can sustain.
//
// Usage:
//
//	vna-serve -loadgen [-nodes 50000] [-substrate model] [-queries 1000000] [-readers N]
//	vna-serve -campaign [-preset bench] [-queries 200000]
//	vna-serve -loadgen -json >> BENCH_serve.json   # one trajectory entry
//
// -loadgen converges a Vivaldi population, then replays a seeded
// closed-loop mix of EstimateRTT and NearestK queries against the serve
// engine while the simulation keeps ticking and publishing snapshots in
// the background — reporting queries/sec, p50/p99 latency and answer
// quality against the substrate ground truth.
//
// -campaign runs the registered campaignServe scenario (a disorder attack
// phase over Pareto session churn) with the serve engine hooked onto the
// measurement barrier, runs the load generator concurrently, and prints
// the per-epoch served-answer quality timeline — the consumer-visible cost
// of the attack.
//
// Banners go to stderr (population, substrate kind and resident size,
// publish cadence; at exit: snapshots published, final epoch, max
// staleness in ticks), results to stdout, mirroring vna-sim conventions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/latency"
	"repro/internal/prof"
	"repro/internal/serve"
	"repro/internal/vivaldi"
)

func main() {
	var (
		loadgenFlag  = flag.Bool("loadgen", false, "run the closed-loop load generator against a converged population")
		campaignFlag = flag.Bool("campaign", false, "run the campaignServe scenario with concurrent load generation")
		nodesFlag    = flag.Int("nodes", 50000, "population size (loadgen mode)")
		subFlag      = flag.String("substrate", "model", "latency backend: dense, packed or model (loadgen mode)")
		convergeFlag = flag.Int("converge", 300, "ticks to converge before serving (loadgen mode)")
		everyFlag    = flag.Int("every", 25, "ticks between snapshot publications")
		queriesFlag  = flag.Int("queries", 1_000_000, "total queries to replay")
		readersFlag  = flag.Int("readers", 0, "reader goroutines (0 = GOMAXPROCS)")
		rttFracFlag  = flag.Float64("rttfrac", 0.5, "fraction of EstimateRTT queries (rest NearestK)")
		seedFlag     = flag.Int64("seed", 1, "root seed for the population and query streams")
		presetFlag   = flag.String("preset", "bench", "scale preset for -campaign: bench, quick, standard or full")
		workersFlag  = flag.Int("workers", 0, "simulation worker pool width (0 = GOMAXPROCS)")
		jsonFlag     = flag.Bool("json", false, "emit a BENCH_serve.json trajectory entry on stdout")
		cpuFlag      = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memFlag      = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()
	if *everyFlag < 1 {
		fmt.Fprintf(os.Stderr, "vna-serve: -every %d: must publish every 1 or more ticks\n", *everyFlag)
		os.Exit(2)
	}
	stopProfiles, err := prof.Start(*cpuFlag, *memFlag)
	if err != nil {
		fatal(err)
	}

	switch {
	case *campaignFlag:
		runCampaign(*presetFlag, *queriesFlag, *readersFlag, *rttFracFlag, *seedFlag, *workersFlag, *jsonFlag)
	case *loadgenFlag:
		runLoadGen(*nodesFlag, *subFlag, *convergeFlag, *everyFlag, *queriesFlag,
			*readersFlag, *rttFracFlag, *seedFlag, *workersFlag, *jsonFlag)
	default:
		fmt.Fprintln(os.Stderr, "vna-serve: one of -loadgen or -campaign is required")
		os.Exit(2)
	}
	if err := stopProfiles(); err != nil {
		fatal(err)
	}
}

func runLoadGen(nodes int, subName string, converge, every, queries, readers int, rttFrac float64, seed int64, workers int, asJSON bool) {
	readers = readerCount(readers)
	kind, err := latency.ParseBackend(subName)
	if err != nil {
		fatal(err)
	}
	if kind == "" {
		kind = latency.BackendModel
	}
	pool := engine.NewPool(workers)
	sc := engine.Scale{Nodes: nodes, Seed: seed}
	sub := engine.BaseSubstrate(sc, kind, pool)
	fmt.Fprintf(os.Stderr, "serving %d nodes (substrate=%s, ~%s resident), publishing every %d ticks, %d converge ticks...\n",
		nodes, kind, latency.FormatBytes(sub.MemoryBytes()), every, converge)

	cs := engine.NewVivaldiSharded(sub, vivaldi.Config{}, seed, pool)
	eng := serve.NewEngine()
	start := time.Now()
	for t := 1; t <= converge; t++ {
		cs.Step(pool)
		if t%every == 0 {
			eng.Publish(cs.Store(), t)
		}
	}
	if eng.Current() == nil {
		eng.Publish(cs.Store(), converge)
	}
	fmt.Fprintf(os.Stderr, "converged in %v; starting %d readers x %d queries with background ticking...\n",
		time.Since(start).Round(time.Millisecond), readerCount(readers), queries)

	// The simulation keeps ticking and publishing while queries run: the
	// publisher goroutine owns both Step and Publish, so the live store is
	// quiescent at every copy; readers only ever touch snapshots.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := converge
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < every; i++ {
				cs.Step(pool)
			}
			tick += every
			eng.Publish(cs.Store(), tick)
		}
	}()

	res, err := serve.RunLoadGen(eng, sub, serve.LoadGenConfig{
		Queries: queries,
		Readers: readers,
		RTTFrac: rttFrac,
		Seed:    seed,
	})
	close(stop)
	wg.Wait()
	if err != nil {
		fatal(err)
	}
	report(eng, res, nodes, string(kind), asJSON)
}

func runCampaign(presetName string, queries, readers int, rttFrac float64, seed int64, workers int, asJSON bool) {
	readers = readerCount(readers)
	p, err := experiment.PresetByName(presetName)
	if err != nil {
		fatal(err)
	}
	eng := serve.NewEngine()
	type probe struct {
		tick int
		q    serve.Quality
	}
	var (
		mu     sync.Mutex
		trail  []probe
		sub    latency.Substrate
		subSet = make(chan struct{})
		once   sync.Once
		qsc    serve.Scratch
	)
	pub := &serve.BarrierPublisher{Eng: eng}
	pub.OnPublish = func(snap *serve.Snapshot, cs engine.CoordSystem, rep, tick int) {
		q := serve.MeasureSnapshot(snap, cs.Substrate(), 500, 40, seed, &qsc)
		mu.Lock()
		trail = append(trail, probe{tick, q})
		mu.Unlock()
		once.Do(func() {
			sub = cs.Substrate()
			close(subSet)
		})
	}
	p.Observer = pub
	fmt.Fprintf(os.Stderr, "running campaignServe at preset %s (workers=%d) with concurrent load generation...\n",
		p.Name, workers)

	done := make(chan error, 1)
	go func() {
		_, err := experiment.RunWith("campaignServe", p, workers)
		done <- err
	}()
	<-subSet

	// Chunked load generation: keep replaying while the scenario runs, so
	// queries cross live epoch swaps; stop at the scenario's end.
	var total serve.LoadGenResult
	var elapsed time.Duration
	chunks := 0
	const chunk = 20_000
	for running := true; running && total.Queries < queries; {
		select {
		case err := <-done:
			if err != nil {
				fatal(err)
			}
			running = false
		default:
			res, err := serve.RunLoadGen(eng, sub, serve.LoadGenConfig{
				Queries: chunk,
				Readers: readers,
				RTTFrac: rttFrac,
				Seed:    seed + int64(chunks),
			})
			if err != nil {
				fatal(err)
			}
			accumulate(&total, res)
			elapsed += res.Elapsed
			chunks++
		}
	}
	if total.Queries >= queries {
		if err := <-done; err != nil {
			fatal(err)
		}
	}
	if elapsed > 0 {
		total.QPS = float64(total.Queries) / elapsed.Seconds()
	}

	mu.Lock()
	sort.Slice(trail, func(i, j int) bool { return trail[i].tick < trail[j].tick })
	fmt.Println("served answer quality per epoch (rel err vs substrate, NN stretch):")
	for _, pr := range trail {
		fmt.Printf("  tick %5d  relerr %8.3f  stretch %6.3f\n", pr.tick, pr.q.RTTRelErr, pr.q.NNStretch)
	}
	mu.Unlock()
	report(eng, total, sub.Size(), "campaign", asJSON)
}

// accumulate merges a loadgen chunk into the running total (quality means
// weighted by their sample counts; latency quantiles kept from the largest
// chunk mix via max — good enough for the run banner, the recorded
// BENCH_serve entries come from single-run -loadgen mode).
func accumulate(total *serve.LoadGenResult, res serve.LoadGenResult) {
	wq := float64(total.RTTQueries)
	wn := float64(total.NNSampled)
	if res.RTTQueries > 0 {
		total.MeanRelErr = (total.MeanRelErr*wq + res.MeanRelErr*float64(res.RTTQueries)) / (wq + float64(res.RTTQueries))
	}
	if res.NNSampled > 0 {
		total.NNStretch = (total.NNStretch*wn + res.NNStretch*float64(res.NNSampled)) / (wn + float64(res.NNSampled))
	}
	total.Queries += res.Queries
	total.RTTQueries += res.RTTQueries
	total.NNQueries += res.NNQueries
	total.NNSampled += res.NNSampled
	total.Elapsed += res.Elapsed
	if res.P50ns > total.P50ns {
		total.P50ns = res.P50ns
	}
	if res.P99ns > total.P99ns {
		total.P99ns = res.P99ns
	}
	if res.EpochsSeen > total.EpochsSeen {
		total.EpochsSeen = res.EpochsSeen
	}
}

func report(eng *serve.Engine, res serve.LoadGenResult, nodes int, kind string, asJSON bool) {
	st := eng.Stats()
	fmt.Fprintf(os.Stderr, "done: %d snapshots published, epoch %d at tick %d, max staleness %d ticks, %d of %d nodes outside the index box\n",
		st.Published, st.Epoch, st.Tick, st.MaxStalenessTicks, st.Clamped, nodes)
	if asJSON {
		entry := map[string]any{
			"date":          time.Now().Format("2006-01-02"),
			"nodes":         nodes,
			"substrate":     kind,
			"go":            runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
			"gomaxprocs":    runtime.GOMAXPROCS(0),
			"queries":       res.Queries,
			"qps":           res.QPS,
			"p50_ns":        res.P50ns,
			"p99_ns":        res.P99ns,
			"mean_rel_err":  res.MeanRelErr,
			"nn_stretch":    res.NNStretch,
			"epochs_seen":   res.EpochsSeen,
			"max_staleness": st.MaxStalenessTicks,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(entry); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("queries     %d (%d rtt, %d nearest-k) in %v\n", res.Queries, res.RTTQueries, res.NNQueries, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("throughput  %.0f queries/sec\n", res.QPS)
	fmt.Printf("latency     p50 %.0f ns, p99 %.0f ns\n", res.P50ns, res.P99ns)
	fmt.Printf("quality     rtt rel err %.3f, nn stretch %.2fx (%d sampled), %d epochs seen\n",
		res.MeanRelErr, res.NNStretch, res.NNSampled, res.EpochsSeen)
}

func readerCount(readers int) int {
	if readers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return readers
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vna-serve:", err)
	os.Exit(1)
}
