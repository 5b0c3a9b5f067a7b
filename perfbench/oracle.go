package main

import (
	"fmt"
	"reflect"
	"time"

	"ftpde/internal/engine"
	"ftpde/internal/service"
	"ftpde/internal/sql"
)

// Answer is one instance's reference result from the staged engine.
type Answer struct {
	Rows      []engine.Row
	Formatted [][]string
	// Elapsed is the staged Coordinator's execution time.
	Elapsed time.Duration
}

// computeOracle runs every instance once on the staged engine.Coordinator,
// the repository's equivalence oracle for the pipelined runtime the service
// uses. The plan is compiled without the optimizer's materialization
// choice: materialization changes where results are stored, not what they
// are.
func computeOracle(cat *engine.Catalog, nodes int, insts []Instance) ([]Answer, error) {
	out := make([]Answer, len(insts))
	for i, in := range insts {
		stmt, err := sql.Parse(in.SQL)
		if err != nil {
			return nil, fmt.Errorf("oracle: parse %s: %w", in.Class, err)
		}
		pp, err := sql.Compile(stmt, cat)
		if err != nil {
			return nil, fmt.Errorf("oracle: compile %s: %w", in.Class, err)
		}
		co := &engine.Coordinator{Nodes: nodes}
		start := time.Now()
		res, _, err := co.Execute(pp.Root)
		elapsed := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("oracle: execute %s: %w", in.Class, err)
		}
		rows := res.AllRows()
		if len(rows) == 0 {
			return nil, fmt.Errorf("oracle: %s returns no rows, so it cannot check anything: %s", in.Class, in.SQL)
		}
		out[i] = Answer{Rows: rows, Formatted: formatRows(rows), Elapsed: elapsed}
	}
	return out, nil
}

// formatRows renders rows the way the service's Response carries them
// (fmt's %v per value).
func formatRows(rows []engine.Row) [][]string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		row := make([]string, len(r))
		for j, v := range r {
			row[j] = fmt.Sprintf("%v", v)
		}
		out[i] = row
	}
	return out
}

// matchesResponse reports whether a served response carries the answer:
// the full cardinality and every returned row, byte for byte.
func (a *Answer) matchesResponse(resp *service.Response) bool {
	if resp.RowsTotal != len(a.Rows) || len(resp.Rows) != len(a.Formatted) {
		return false
	}
	for i, row := range resp.Rows {
		want := a.Formatted[i]
		if len(row) != len(want) {
			return false
		}
		for j := range row {
			if row[j] != want[j] {
				return false
			}
		}
	}
	return true
}

// matchesRows reports whether a replayed result equals the answer.
func (a *Answer) matchesRows(rows []engine.Row) bool {
	return reflect.DeepEqual(rows, a.Rows)
}
