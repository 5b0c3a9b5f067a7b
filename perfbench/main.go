// Command perfbench is the repository's served-query benchmark. It drives an
// in-process service.Server through Server.Submit with closed-loop clients
// on one of three seeded workloads, checks every answer against the staged
// engine, and prints the end-to-end metrics (--trace 0) or, from a replay of
// the same request sequence through each layer's public entry points, the
// per-layer metrics (--trace 1). The last line of standard output is the
// result object; the line before it is the full record (environment, seed,
// sample counts); both are also written under .bench_build/perfbench.
//
//	bash perfbench/run.sh --workload tpch-mix --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"ftpde/internal/service"
	"ftpde/internal/tpch"
)

// Fixed shape of every workload: the catalog, the cluster, and the load.
const (
	sf        = 0.01
	nodes     = 4
	dataSeed  = 1 // the catalog is the same for every workload seed
	clients   = 2
	setupReps = 3
)

// outDir holds result records and span files, relative to the checkout.
const outDir = ".bench_build/perfbench"

func main() {
	var (
		workload = flag.String("workload", "", "workload: tpch-mix, tpch-faults or short-queries")
		seed     = flag.Int64("seed", 1, "workload seed (substitution parameters, request order, failure schedule)")
		seconds  = flag.Float64("seconds", 15, "measured seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer replay")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, seed int64, dur time.Duration, trace int) error {
	ctx := context.Background()
	traced := trace == 1
	w, err := NewWorkload(name, seed)
	if err != nil {
		return err
	}
	env := environment()

	// The oracle runs before set-up and outside setup_s.
	cat, err := tpch.Generate(sf, nodes, dataSeed)
	if err != nil {
		return fmt.Errorf("generate catalog: %w", err)
	}
	answers, err := computeOracle(cat, nodes, w.Instances)
	if err != nil {
		return err
	}

	// Set up several times and report the median; the last server serves.
	var setupRuns []float64
	warmFailed := 0
	var srv *service.Server
	for rep := 0; rep < setupReps; rep++ {
		if srv != nil {
			if err := srv.Close(); err != nil {
				return fmt.Errorf("close set-up server: %w", err)
			}
		}
		s, elapsed, bad, err := setUp(ctx, w, seed, answers)
		if err != nil {
			return err
		}
		srv = s
		setupRuns = append(setupRuns, elapsed.Seconds())
		warmFailed += bad
	}

	if !traced {
		cat = nil // only the replay needs a catalog of its own
	}
	// Return set-up's garbage to the OS before resetting the high-water
	// mark, so the peak is the window's and not the scavenger's backlog.
	debug.FreeOSMemory()
	rssNote := ""
	if err := resetPeakRSS(); err != nil {
		rssNote = "peak RSS not reset: " + err.Error()
	}

	e2eDur := dur
	if traced {
		// The traced run splits its time between the served window (the
		// baseline of the service's self cost) and the replay.
		e2eDur = dur / 2
	}
	e2e := runClosedLoop(ctx, srv, w, answers, clients, e2eDur)
	peak, err := peakRSSBytes()
	if err != nil {
		return err
	}
	if err := srv.Close(); err != nil {
		return fmt.Errorf("close server: %w", err)
	}
	summary := summarizeE2E(e2e, peak, median(append([]float64(nil), setupRuns...)))

	rec := record{
		Workload:     name,
		Seed:         seed,
		Trace:        trace,
		Seconds:      dur.Seconds(),
		Env:          env,
		Instances:    w.Instances,
		SetupRuns:    setupRuns,
		WarmupFailed: warmFailed,
		Oracle:       oracleSummary(w, answers),
		E2E:          summary,
		PeakRSSNote:  rssNote,
		ConfirmSeed:  confirmSeed,
	}
	res := result{
		Attempted: len(e2e.Results),
		Failed:    len(e2e.Results) - e2e.okCount(),
	}

	if traced {
		rep, err := newReplayer(w, cat, answers, seed)
		if err != nil {
			return err
		}
		n := int64(len(e2e.Results))
		rr, err := rep.run(ctx, n, clients)
		rep.close()
		if err != nil {
			return err
		}
		spansFile, err := writeSpans(name, seed, rr.Spans)
		if err != nil {
			return err
		}
		layers, detail := perLayer(w, e2e, summary, rr, answers)
		detail.SpansFile = spansFile
		rec.Replay = detail
		res.Attempted += rr.Attempts
		res.Failed += rr.Failed
		res.Metrics = layers
	} else {
		res.Metrics = summary.metrics()
	}
	res.Correct = res.Failed == 0 && warmFailed == 0 && res.Attempted > 0
	rec.Correct = res.Correct
	return emit(rec, res)
}

// emit writes the record and result files and prints both lines.
func emit(rec record, res result) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", rec.Workload, rec.Seed, rec.Trace)
	body := append(append(line, '\n'), append(last, '\n')...)
	if err := os.WriteFile(filepath.Join(dir, base+".json"), body, 0o644); err != nil {
		return err
	}
	fmt.Println(string(line))
	fmt.Println(string(last))
	return nil
}

// writeSpans writes the traced replay's spans, one JSON object a line.
func writeSpans(workload string, seed int64, spans []span) (string, error) {
	dir := filepath.Join(outDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}
