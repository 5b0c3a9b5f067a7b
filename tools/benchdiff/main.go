// Command benchdiff compares two benchmark result files (the
// BENCH_runtime.json emitted by internal/runtime's benchmark harness, or the
// BENCH_service.json emitted by ftload's service sweep) and flags
// regressions: any lower-is-better series — seconds/op, allocs/op, bytes/op,
// checkpoint bytes, service latency percentiles (p50_ms/p99_ms), the ftlint
// sweep wall time (lint_wall_ms, flagged only past 2x) — that got worse by
// more than the threshold, and any higher-is-better series (speedups,
// reductions, service qps) that shrank by more than the threshold.
//
// Usage:
//
//	benchdiff [-threshold 0.10] [-all] old.json new.json
//
// Exit status 1 means at least one regression crossed the threshold, making
// the command usable as an (advisory) CI gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		threshold = flag.Float64("threshold", 0.10, "relative change that counts as a regression")
		all       = flag.Bool("all", false, "print every compared series, not only regressions")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold 0.10] [-all] old.json new.json")
		os.Exit(2)
	}
	oldM, err := loadFlat(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	newM, err := loadFlat(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	report, regressions := Diff(oldM, newM, *threshold, *all)
	fmt.Print(report)
	if regressions > 0 {
		fmt.Printf("%d regression(s) beyond %.0f%%\n", regressions, *threshold*100)
		os.Exit(1)
	}
	fmt.Println("no regressions")
}

func loadFlat(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]float64)
	flatten("", doc, out)
	return out, nil
}

// flatten walks a decoded JSON document and records every numeric leaf under
// its dotted path (array elements are indexed).
func flatten(prefix string, v any, out map[string]float64) {
	switch x := v.(type) {
	case map[string]any:
		for k, sub := range x {
			flatten(join(prefix, k), sub, out)
		}
	case []any:
		for i, sub := range x {
			flatten(join(prefix, strconv.Itoa(i)), sub, out)
		}
	case float64:
		out[prefix] = x
	}
}

func join(prefix, key string) string {
	if prefix == "" {
		return key
	}
	return prefix + "." + key
}

// direction classifies a series by its key: -1 lower is better, +1 higher is
// better, 0 informational (counts, configuration, identifiers).
func direction(key string) int {
	leaf := leafOf(key)
	switch {
	case strings.HasSuffix(leaf, "seconds_per_op"),
		strings.HasSuffix(leaf, "allocs_per_op"),
		strings.HasSuffix(leaf, "bytes_per_op"),
		strings.HasSuffix(leaf, "_bytes"),
		// Progress-tracking overhead on pipelined Q1 (BENCH_runtime.json).
		leaf == "obs_overhead_ns",
		// Full-module ftlint sweep wall time (BENCH_runtime.json).
		leaf == "lint_wall_ms",
		// Continuous-profiling overhead on pipelined Q1 (BENCH_runtime.json).
		leaf == "prof_overhead_ns", leaf == "prof_overhead_frac",
		// BENCH_service.json latency percentiles (p50_ms, p99_ms).
		leaf == "p50_ms", leaf == "p99_ms":
		return -1
	case strings.Contains(leaf, "speedup"), strings.HasSuffix(leaf, "_reduction"),
		// BENCH_service.json throughput.
		leaf == "qps":
		return 1
	default:
		return 0
	}
}

func leafOf(key string) string {
	if i := strings.LastIndex(key, "."); i >= 0 {
		return key[i+1:]
	}
	return key
}

// thresholdFor widens the regression bar for series whose measurement is
// dominated by ambient machine state rather than the code under test.
// lint_wall_ms times a `go list -export` whose build-cache temperature
// swings it by tens of percent run to run, so only a >2x blowup — the
// signature of an analyzer going super-linear — counts as a regression.
// prof_overhead_frac is the difference of two benchmark medians, so near the
// 2% budget its run-to-run noise is the same order as its value; only a >2x
// blowup is a credible regression.
func thresholdFor(key string, base float64) float64 {
	switch leafOf(key) {
	case "lint_wall_ms", "prof_overhead_ns", "prof_overhead_frac":
		if base < 1.0 {
			return 1.0
		}
	}
	return base
}

// Diff renders the comparison and counts regressions beyond threshold.
func Diff(oldM, newM map[string]float64, threshold float64, all bool) (string, int) {
	keys := make([]string, 0, len(oldM))
	for k := range oldM {
		if _, ok := newM[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	var b strings.Builder
	regressions := 0
	for _, k := range keys {
		dir := direction(k)
		if dir == 0 {
			continue
		}
		ov, nv := oldM[k], newM[k]
		if ov == 0 {
			continue
		}
		change := (nv - ov) / ov
		th := thresholdFor(k, threshold)
		regressed := (dir < 0 && change > th) || (dir > 0 && change < -th)
		if regressed {
			regressions++
		}
		if !regressed && !all {
			continue
		}
		mark := "  "
		if regressed {
			mark = "!!"
		}
		fmt.Fprintf(&b, "%s %-55s %14.6g -> %-14.6g %+7.1f%%\n", mark, k, ov, nv, change*100)
	}
	var dropped []string
	for k := range oldM {
		if _, ok := newM[k]; !ok && direction(k) != 0 {
			dropped = append(dropped, k)
		}
	}
	sort.Strings(dropped)
	for _, k := range dropped {
		fmt.Fprintf(&b, "-- %-55s dropped from new file\n", k)
	}
	return b.String(), regressions
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
