package experiments

import (
	"fmt"
	"math"

	"ftpde/internal/cost"
	"ftpde/internal/exec"
	"ftpde/internal/failure"
	"ftpde/internal/schemes"
	"ftpde/internal/tpch"
)

// Config controls the simulated-cluster experiments.
type Config struct {
	// Nodes is the cluster size (paper: 10).
	Nodes int
	// Traces is the number of failure traces per MTBF (paper: 10).
	Traces int
	// Seed makes trace generation deterministic.
	Seed int64
	// SF is the TPC-H scale factor for the fixed-scale experiments
	// (paper: 100).
	SF float64
}

// DefaultConfig mirrors the paper's setup.
func DefaultConfig() Config {
	return Config{Nodes: 10, Traces: 10, Seed: 1, SF: 100}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Nodes == 0 {
		c.Nodes = d.Nodes
	}
	if c.Traces == 0 {
		c.Traces = d.Traces
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.SF == 0 {
		c.SF = d.SF
	}
	return c
}

// traceHorizon bounds the failure traces: generously beyond any plausible
// runtime under retries so the simulation never outruns the trace.
func traceHorizon(baseline float64) float64 { return 500 * baseline }

// SchemeOverhead configures the plan per the scheme, simulates it against
// the traces, and returns the mean overhead percentage over the baseline.
// aborted reports whether any run exceeded the restart limit (the paper's
// "Aborted" bars).
func SchemeOverhead(q *tpch.Query, k schemes.Kind, spec failure.Spec, traces []*failure.Trace) (float64, bool, error) {
	m := cost.DefaultModel(spec)
	p := q.Plan.Clone()
	cfg, err := k.Configure(p, m)
	if err != nil {
		return 0, false, err
	}
	if err := p.Apply(cfg); err != nil {
		return 0, false, err
	}
	opt := exec.Options{Cluster: spec, Model: m, Recovery: k.Recovery()}
	return exec.MeasuredOverhead(p, opt, traces, q.Baseline)
}

func overheadCell(mean float64, aborted bool) string {
	if aborted || math.IsInf(mean, 1) {
		return "Aborted"
	}
	return fpct(mean)
}

// Figure8 reproduces paper Figure 8: the overhead of the four
// fault-tolerance schemes for queries Q1, Q3, Q5, Q1C, Q2C over TPC-H
// SF=100. low selects the low-MTBF setting (MTBF = 1.1x the query's
// baseline runtime, Figure 8a); otherwise MTBF = 10x baseline (Figure 8b).
func Figure8(low bool, c Config) (*Table, error) {
	c = c.withDefaults()
	queries, err := tpch.Queries(tpch.Params{SF: c.SF, Nodes: c.Nodes})
	if err != nil {
		return nil, err
	}
	which := "8(b) High MTBF (10x runtime)"
	factor := 10.0
	if low {
		which = "8(a) Low MTBF (1.1x runtime)"
		factor = 1.1
	}
	t := &Table{
		Title:  fmt.Sprintf("Figure %s: Overhead (in %%) by query and scheme, SF=%g, n=%d", which, c.SF, c.Nodes),
		Header: []string{"Query"},
		Notes: []string{
			"expected shape: cost-based always least-or-comparable; Q1 identical across schemes (no free operator);",
			"no-mat(restart) aborts for every query at low MTBF; all-mat much worse than cost-based on Q1C/Q2C",
		},
	}
	for _, k := range schemes.All() {
		t.Header = append(t.Header, k.String())
	}
	for qi, q := range queries {
		spec := failure.Spec{Nodes: c.Nodes, MTBF: factor * q.Baseline, MTTR: 1}
		traces := failure.NewTraces(spec, traceHorizon(q.Baseline), c.Seed+int64(qi)*1000, c.Traces)
		row := []string{q.Name}
		for _, k := range schemes.All() {
			mean, aborted, err := SchemeOverhead(q, k, spec, traces)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", q.Name, k, err)
			}
			row = append(row, overheadCell(mean, aborted))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure10 reproduces paper Figure 10: overhead vs. query runtime for TPC-H
// Q5 across scale factors (SF = 1..1000) with a fixed per-node MTBF of one
// day. The x column is the failure-free baseline runtime in minutes.
func Figure10(c Config) (*Table, error) {
	c = c.withDefaults()
	t := &Table{
		Title:  fmt.Sprintf("Figure 10: Varying Runtime — Q5, MTBF=1 day, n=%d (overhead in %%)", c.Nodes),
		Header: []string{"SF", "Runtime w/o failure (min)"},
		Notes: []string{
			"expected shape: all schemes ~0% for short queries; restart explodes/aborts for long queries;",
			"lineage worsens more gracefully but stays above cost-based; all-mat tracks cost-based within its ~34% materialization tax",
		},
	}
	for _, k := range schemes.All() {
		t.Header = append(t.Header, k.String())
	}
	for si, sf := range []float64{1, 3, 10, 30, 100, 300, 1000, 3000, 6000} {
		q, err := tpch.Q5(tpch.Params{SF: sf, Nodes: c.Nodes})
		if err != nil {
			return nil, err
		}
		spec := failure.Spec{Nodes: c.Nodes, MTBF: failure.OneDay, MTTR: 1}
		traces := failure.NewTraces(spec, traceHorizon(q.Baseline), c.Seed+int64(si)*777, c.Traces)
		row := []string{fmt.Sprintf("%g", sf), fmt.Sprintf("%.1f", q.Baseline/60)}
		for _, k := range schemes.All() {
			mean, aborted, err := SchemeOverhead(q, k, spec, traces)
			if err != nil {
				return nil, err
			}
			row = append(row, overheadCell(mean, aborted))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure11 reproduces paper Figure 11: overhead for Q5@SF100 (baseline
// ~905 s) under per-node MTBFs of one week, one day and one hour.
func Figure11(c Config) (*Table, error) {
	c = c.withDefaults()
	q, err := tpch.Q5(tpch.Params{SF: c.SF, Nodes: c.Nodes})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Figure 11: Varying MTBF — Q5@SF%g, n=%d (overhead in %%)", c.SF, c.Nodes),
		Header: []string{"Scheme", "Cluster A (MTBF=1 week)", "Cluster B (MTBF=1 day)", "Cluster C (MTBF=1 hour)"},
		Notes: []string{
			"expected shape: cost-based lowest everywhere; all-mat pays ~34% regardless of MTBF; no-mat schemes blow up as MTBF drops",
		},
	}
	mtbfs := []float64{failure.OneWeek, failure.OneDay, failure.OneHour}
	for _, k := range schemes.All() {
		row := []string{k.String()}
		for mi, mtbf := range mtbfs {
			spec := failure.Spec{Nodes: c.Nodes, MTBF: mtbf, MTTR: 1}
			traces := failure.NewTraces(spec, traceHorizon(q.Baseline), c.Seed+int64(mi)*333, c.Traces)
			mean, aborted, err := SchemeOverhead(q, k, spec, traces)
			if err != nil {
				return nil, err
			}
			row = append(row, overheadCell(mean, aborted))
		}
		t.AddRow(row...)
	}
	return t, nil
}
