package main

import (
	"strings"
	"testing"
)

func TestFlattenNestedDocument(t *testing.T) {
	out := map[string]float64{}
	flatten("", map[string]any{
		"scaling": []any{
			map[string]any{"workers": float64(1), "pipelined_seconds_per_op": 0.5},
		},
		"checkpoint_q1_row_gob_bytes": float64(1000),
		"label":                       "ignored",
	}, out)
	if out["scaling.0.pipelined_seconds_per_op"] != 0.5 {
		t.Errorf("flatten missed array leaf: %v", out)
	}
	if out["checkpoint_q1_row_gob_bytes"] != 1000 {
		t.Errorf("flatten missed top-level leaf: %v", out)
	}
	if _, ok := out["label"]; ok {
		t.Error("non-numeric leaf survived flattening")
	}
}

func TestDirectionClassification(t *testing.T) {
	cases := map[string]int{
		"scaling.0.pipelined_seconds_per_op":        -1,
		"scaling.2.pipelined_allocs_per_op":         -1,
		"scaling.1.pipelined_bytes_per_op":          -1,
		"scan_filter_project_columnar.bytes_per_op": -1,
		"checkpoint_q1_column_block_bytes":          -1,
		"obs_overhead_ns":                           -1,
		"lint_wall_ms":                              -1,
		"pipelined_q1_progress.allocs_per_op":       -1,
		"pipelined_speedup":                         1,
		"checkpoint_q1_bytes_reduction":             1,
		"obs_overhead_frac":                         0,
		"scaling.0.workers":                         0,
		"gomaxprocs":                                0,
		// BENCH_service.json sweep series.
		"sweep.0.clean.qps":       1,
		"sweep.1.failures.qps":    1,
		"sweep.0.clean.p50_ms":    -1,
		"sweep.2.failures.p99_ms": -1,
		"sweep.0.clean.completed": 0,
		"sweep.0.clients":         0,
		"config.duration_seconds": 0,
	}
	for k, want := range cases {
		if got := direction(k); got != want {
			t.Errorf("direction(%q) = %d, want %d", k, got, want)
		}
	}
}

func TestDiffFlagsRegressions(t *testing.T) {
	oldM := map[string]float64{
		"a.seconds_per_op": 1.0,
		"b.allocs_per_op":  100,
		"ckpt_bytes":       1000,
		"speedup":          2.0,
		"workers":          4,
	}
	newM := map[string]float64{
		"a.seconds_per_op": 1.25, // +25%: regression
		"b.allocs_per_op":  105,  // +5%: fine
		"ckpt_bytes":       900,  // improved
		"speedup":          1.5,  // -25%: regression
		"workers":          8,    // informational
	}
	report, n := Diff(oldM, newM, 0.10, false)
	if n != 2 {
		t.Fatalf("regressions = %d, want 2\n%s", n, report)
	}
	if !strings.Contains(report, "a.seconds_per_op") || !strings.Contains(report, "speedup") {
		t.Errorf("report missing regressed series:\n%s", report)
	}
	if strings.Contains(report, "b.allocs_per_op") {
		t.Errorf("report includes non-regressed series without -all:\n%s", report)
	}

	reportAll, n2 := Diff(oldM, newM, 0.10, true)
	if n2 != n {
		t.Errorf("-all changed regression count: %d vs %d", n2, n)
	}
	if !strings.Contains(reportAll, "b.allocs_per_op") {
		t.Errorf("-all report missing improved series:\n%s", reportAll)
	}

	// Series missing from the new file are listed once each, sorted, so the
	// report is the same on every run.
	for _, k := range []string{"z.seconds_per_op", "m.allocs_per_op", "c.bytes_per_op"} {
		oldM[k] = 1
	}
	const want = "c.bytes_per_op,m.allocs_per_op,z.seconds_per_op"
	for i := 0; i < 20; i++ {
		report, _ := Diff(oldM, newM, 0.10, false)
		var dropped []string
		for _, line := range strings.Split(report, "\n") {
			if strings.HasSuffix(line, "dropped from new file") {
				dropped = append(dropped, strings.Fields(line)[1])
			}
		}
		if got := strings.Join(dropped, ","); got != want {
			t.Fatalf("dropped series listed as %q, want %q:\n%s", got, want, report)
		}
	}
}

func TestLintWallMsRegressesOnlyPastDouble(t *testing.T) {
	oldM := map[string]float64{"lint_wall_ms": 100}

	// +80% is well past the default 10% threshold but under the 2x bar the
	// noisy go-list-backed measurement gets: not a regression.
	report, n := Diff(oldM, map[string]float64{"lint_wall_ms": 180}, 0.10, false)
	if n != 0 {
		t.Errorf("+80%% lint_wall_ms flagged as regression:\n%s", report)
	}

	// A >2x blowup is the super-linear-analyzer signature and must trip.
	report, n = Diff(oldM, map[string]float64{"lint_wall_ms": 250}, 0.10, false)
	if n != 1 {
		t.Errorf("2.5x lint_wall_ms not flagged (n=%d):\n%s", n, report)
	}
	if !strings.Contains(report, "lint_wall_ms") {
		t.Errorf("report missing lint_wall_ms series:\n%s", report)
	}

	// An explicit -threshold wider than 2x still wins.
	if _, n := Diff(oldM, map[string]float64{"lint_wall_ms": 250}, 3.0, false); n != 0 {
		t.Errorf("explicit -threshold 3.0 overridden for lint_wall_ms")
	}
}

func TestDiffNoRegressionsOnIdenticalFiles(t *testing.T) {
	m := map[string]float64{"x.seconds_per_op": 0.5, "speedup": 1.6}
	if report, n := Diff(m, m, 0.10, false); n != 0 {
		t.Errorf("identical inputs flagged %d regressions:\n%s", n, report)
	}
}
