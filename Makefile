# Development entry points. The benchmark target is the one-command way to
# re-record BENCH_engine.json on a new host (see README "Performance").

# bench pipes through tee; without pipefail a failing go test would exit
# with tee's (successful) status and CI would upload a truncated artifact.
SHELL := /bin/bash -o pipefail

BENCHTIME ?= 1x
BENCH     ?= .

.PHONY: test bench bench-serve bench-guard bench-check race docs-check smoke size

test:
	go build ./... && go test ./...

# The second line runs the pool's contract tests with fewer and with more
# Ps than workers, so both the no-helper and the lingering-helper paths
# see the race detector.
race:
	go test -race ./internal/engine/ ./internal/vivaldi/ ./internal/nps/ ./internal/serve/
	go test -race -cpu 1,4 -run 'TestPool' ./internal/engine/

# Documentation gate: every internal package carries a godoc package
# comment and every relative markdown link in README.md and docs/
# resolves (run by the CI docs job).
docs-check:
	./scripts/docs-check.sh

# The two code-size numbers ROADMAP aim 2 tracks: non-test Go lines
# outside bench/ and exported identifiers. The expected direction is down.
size:
	@./scripts/size.sh

# Example smoke tests: the quickstart, the (virtual-clock, hence
# deterministic and fast) live-udp demo and the overlay-cdn consumer-path
# demo must run to completion, and a small vna-serve load-generation run
# must serve queries end to end. (That the scenarios the docs' reproduce
# commands name are registered is a tier-1 test:
# internal/experiment TestDocumentedScenariosRegistered.)
smoke:
	go run ./examples/quickstart
	go run ./examples/live-udp
	go run ./examples/overlay-cdn
	go run ./cmd/vna-serve -loadgen -nodes 500 -converge 50 -queries 20000 > /dev/null

# Runs the full benchmark suite with allocation stats and tees the raw
# output to bench.txt (the CI bench job uploads it as an artifact).
# Override cadence or selection, e.g.:
#   make bench BENCHTIME=3x BENCH='BenchmarkEngineParallel|TickSharded|Measure5k'
bench:
	go test -run '^$$' -bench '$(BENCH)' -benchmem -benchtime $(BENCHTIME) . ./internal/... | tee bench.txt

# The serving-layer query benches (spatial-index vs linear-oracle k-NN,
# EstimateRTT, per-barrier publish) with allocation stats — the inputs to
# BENCH_serve.json's query-path columns. A higher benchtime smooths the
# shared-container jitter: make bench-serve BENCHTIME=1000x
bench-serve:
	go test -run '^$$' -bench 'BenchmarkServe' -benchmem -benchtime $(BENCHTIME) . | tee bench_serve.txt

# Allocation regression gate: the substrate and steady-state tick
# benchmarks must show the sharded tick within its allocs/op ceiling.
# The PR that introduced the flat coordinate store made a steady tick
# allocation-free on the serial path; an 8-worker pool adds one job per
# ForEach call — 3 allocs/op on all three sharded ticks in nine runs of
# ten, up to 8 when a helper expired on a busy host and was started again
# — now that the pool's helpers linger between calls instead of being
# started by each (which read 30–45). The ceiling of 16 allocs/op leaves
# room for helper starts on a host with more cores and guards the
# invariant permanently — a per-shard allocation at 5000 nodes would show
# up as 157, a per-node or per-probe one as thousands.
#
# The live backend carries the same contract: the timing-wheel scheduler,
# pooled packet buffers and DecodeInto make a steady live tick (1740
# daemon nodes exchanging real wire-protocol packets) allocation-free per
# packet. BenchmarkLiveTick1740 steps on engine.Serial, so the pool never
# was part of its count: 7 allocs/op averaged over 200 ticks, 18–32 on the
# single tick a 1x run measures (pending-map growth lands where it
# lands). It keeps its own LIVE_ALLOC_CEILING of 64 — one allocation per
# probe at 1740 nodes would show up as ~1700.
#
# bench-guard runs the relevant benchmark subset and checks it;
# bench-check applies the check to an existing output file (the CI bench
# job points it at bench.txt from the full `make bench` run, so the
# benchmarks execute once per job).
# The serving layer adds a third guard: the steady k-NN query path
# (BenchmarkServeNearestK50k, caller-scratch APIs over an immutable
# snapshot) must stay within SERVE_ALLOC_CEILING allocs/op — it measures
# 0 today; the ceiling of 8 leaves room for incidental runtime noise while
# still catching any per-candidate or per-result allocation (k=16 results
# at 50k nodes would blow straight through it). The same query with 16
# nodes at the 50 000 ms exile radius (BenchmarkServeNearestK50kExiled,
# matched by the same -bench pattern) shares the ceiling, so the attacked
# query path can neither start allocating nor drop out of the run.
#
# The NPS positioning round carries the fourth guard: a warm round at the
# paper's 1740 nodes (BenchmarkNPSPosition1740 — batched probe gather,
# arena-backed samples, per-shard solver scratch) measures ~60 allocs/op
# today, all of it the security filter's elimination trickle. The ceiling
# of 512 leaves room for elimination-heavy rounds while catching any
# per-probe (~34 000 probes) or per-solve (~1700 solves) allocation.
# BenchmarkNPSScale25k rides along unguarded so the guard artifact records
# the construction time next to the round cost (BENCH_engine.json).
#
# The hardened Vivaldi tick carries the fifth guard: with the full
# hardening stack on (median filter, adjustment, gravity, decay) a steady
# 1740-node tick must stay within the same TICK_ALLOC_CEILING — the
# filter's medians run over preallocated (node, spring)-owned rings, so a
# per-sample allocation would show up as ~1700 allocs/op.
#
# The attacked tick carries the sixth guard: with 30 % of 1740 nodes
# running the combined attack (BenchmarkTickAttacked1740), taps write their
# lies into scratch they own, the tick copies each into a flat per-prober
# buffer and everything a tap is shown is a view of the tick-start
# snapshot, so the tick stays within the same TICK_ALLOC_CEILING — one
# allocation per forged probe at 1740 nodes would read ~520.
TICK_ALLOC_CEILING  ?= 16
LIVE_ALLOC_CEILING  ?= 64
SERVE_ALLOC_CEILING ?= 8
NPS_ALLOC_CEILING   ?= 512
BENCH_GUARD_FILE    ?= bench_guard.txt
bench-guard:
	go test -run '^$$' -bench 'BenchmarkTickSharded5k|BenchmarkTickHardened1740|BenchmarkTickAttacked1740|BenchmarkLiveTick1740|BenchmarkServeNearestK50k|BenchmarkRTTPairsPacked|BenchmarkRTTPairsDense|BenchmarkMeasure25kModel|BenchmarkSubstrate|BenchmarkNPSScale25k|BenchmarkNPSPosition1740' \
		-benchmem -benchtime 1x . | tee bench_guard.txt
	@$(MAKE) --no-print-directory bench-check BENCH_GUARD_FILE=bench_guard.txt

# One rule over a Benchmark:label:ceiling list: every listed benchmark
# must appear in the file and stay within its allocs/op ceiling.
BENCH_CEILINGS = \
	BenchmarkTickSharded5k:steady-state_sharded_tick:$(TICK_ALLOC_CEILING) \
	BenchmarkTickHardened1740:steady-state_hardened_tick:$(TICK_ALLOC_CEILING) \
	BenchmarkTickAttacked1740:steady-state_attacked_tick:$(TICK_ALLOC_CEILING) \
	BenchmarkLiveTick1740:steady-state_live_tick:$(LIVE_ALLOC_CEILING) \
	BenchmarkServeNearestK50k:serve_k-NN_query:$(SERVE_ALLOC_CEILING) \
	BenchmarkServeNearestK50kExiled:serve_k-NN_query_under_exile:$(SERVE_ALLOC_CEILING) \
	BenchmarkNPSPosition1740:NPS_positioning_round:$(NPS_ALLOC_CEILING)

bench-check:
	@awk -v specs='$(BENCH_CEILINGS)' 'BEGIN { n = split(specs, list, " "); \
			for (i = 1; i <= n; i++) { split(list[i], f, ":"); order[i] = f[1]; \
				gsub("_", " ", f[2]); label[f[1]] = f[2]; ceiling[f[1]] = f[3] } } \
		{ name = $$1; sub(/-[0-9]+$$/, "", name) } \
		name in ceiling { found[name] = 1; allocs = $$(NF-1); \
			if (allocs+0 > ceiling[name]) { \
				printf "FAIL: %s allocates %s allocs/op (ceiling %s)\n", label[name], allocs, ceiling[name]; over = 1; exit 1 } \
			printf "OK: %s %s allocs/op (ceiling %s)\n", label[name], allocs, ceiling[name] } \
		END { if (over) exit 1; for (i = 1; i <= n; i++) if (!found[order[i]]) { \
			print "FAIL: " order[i] " missing from $(BENCH_GUARD_FILE)"; exit 1 } }' $(BENCH_GUARD_FILE)
