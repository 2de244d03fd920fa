package main

import (
	"fmt"
	"io"
	"math"
)

// verdict of one (metric, workload) row of a comparison.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
)

// judge compares the runs of one metric on one workload. old and new are
// one value per run. A row is unresolved when the run-to-run spread
// (quartile distance over median, the wider side) exceeds the bound and
// the two sides' ranges overlap: then neither "unchanged" nor "worse" can
// be told from noise. It is better only when every new run beats every
// old one, or the medians differ by more than the old side's own spread.
func judge(m metricDef, old, new []float64) (verdict string, change, spread float64) {
	if len(old) == 0 || len(new) == 0 {
		return verdictMissing, math.NaN(), math.NaN()
	}
	mo, mn := median(old), median(new)
	// worsening as a share of the old median, positive = worse
	change = (mn - mo) / math.Abs(mo)
	if m.Better == higher {
		change = -change
	}
	rel := func(xs []float64) float64 {
		q1, q3 := quartiles(xs)
		return (q3 - q1) / math.Abs(median(xs))
	}
	spreadOld := rel(old)
	spread = math.Max(spreadOld, rel(new))

	lo, hi := minMax(old)
	nlo, nhi := minMax(new)
	overlap := nlo <= hi && lo <= nhi
	allBetter := nhi < lo
	if m.Better == higher {
		allBetter = nlo > hi
	}
	switch {
	case allBetter:
		return verdictBetter, change, spread
	case spread > m.Bound && overlap:
		return verdictUnresolved, change, spread
	case change > m.Bound:
		return verdictWorse, change, spread
	case change < 0 && -change > spreadOld:
		return verdictBetter, change, spread
	}
	return verdictWithin, change, spread
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// values gathers one value per untraced, full-size run of a workload.
func values(rf resultFile, workload, metric string) []float64 {
	var out []float64
	for _, r := range rf.Runs {
		if r.Workload == workload && !r.Trace && !r.Smoke {
			if m, ok := r.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

func failedFrac(rf resultFile, workload string) (frac float64, runs int) {
	var sum runRecord
	for _, r := range rf.Runs {
		if r.Workload == workload && !r.Smoke {
			sum.Attempted += r.Attempted
			sum.Failed += r.Failed
			runs++
		}
	}
	return sum.failedFrac(), runs
}

// compareFiles prints one row per (end-to-end metric, workload) of two
// result ledgers and reports whether any row is worse or any workload's
// failed_frac rose.
func compareFiles(w io.Writer, oldPath, newPath string) (worse bool, err error) {
	oldRF, err := readResults(oldPath)
	if err != nil {
		return false, err
	}
	newRF, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-18s %5s %14s %14s %8s %7s %7s  %s\n",
		"workload", "metric", "runs", "old median", "new median", "worse by", "bound", "spread", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			o, n := values(oldRF, wl.Name, m.Name), values(newRF, wl.Name, m.Name)
			verdict, change, spread := judge(m, o, n)
			if verdict == verdictMissing {
				continue
			}
			fmt.Fprintf(w, "%-14s %-18s %2d/%-2d %14.6g %14.6g %+7.1f%% %6.0f%% %6.1f%%  %s\n",
				wl.Name, m.Name, len(o), len(n), median(o), median(n), change*100, m.Bound*100, spread*100, verdict)
			worse = worse || verdict == verdictWorse
		}
		fo, ro := failedFrac(oldRF, wl.Name)
		fn, rn := failedFrac(newRF, wl.Name)
		if ro == 0 || rn == 0 {
			continue
		}
		verdict := verdictWithin
		if fn > fo {
			verdict, worse = verdictWorse, true
		}
		fmt.Fprintf(w, "%-14s %-18s %2d/%-2d %14.6g %14.6g %8s %7s %7s  %s\n",
			wl.Name, "failed_frac", ro, rn, fo, fn, "", "0", "", verdict)
	}
	return worse, nil
}
