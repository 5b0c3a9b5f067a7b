package main

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ftpde/internal/obs"
	"ftpde/internal/service"
)

// serverConfig is the served configuration of a workload.
func serverConfig(w *Workload, seed int64) service.Config {
	return service.Config{
		SF:          sf,
		Nodes:       nodes,
		Seed:        dataSeed,
		ModelMTBF:   w.ModelMTBF,
		ModelMTTR:   w.ModelMTTR,
		CPUPerRow:   w.CPUPerRow,
		WritePerRow: w.WritePerRow,
		InjectMTBF:  w.InjectMTBF,
		InjectSeed:  seed,
	}
}

// setUp builds a server and warms it with one Submit per distinct instance,
// which fills its table-statistics cache. Warm-up answers are checked like
// measured ones; the count of wrong or failed warm-ups is returned.
func setUp(ctx context.Context, w *Workload, seed int64, answers []Answer) (*service.Server, time.Duration, int, error) {
	start := time.Now()
	srv, err := service.New(serverConfig(w, seed))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("set-up: %w", err)
	}
	bad := 0
	for i, in := range w.Instances {
		resp, err := srv.Submit(ctx, service.Request{ID: "warm-" + strconv.Itoa(i), Query: in.SQL})
		if err != nil || !answers[i].matchesResponse(resp) {
			bad++
		}
	}
	return srv, time.Since(start), bad, nil
}

// served is one measured request.
type served struct {
	Req       int64
	Class     string
	Latency   time.Duration
	OK        bool
	MatConfig string
}

// e2eRun is a closed-loop measurement window.
type e2eRun struct {
	Results []served
	Delta   windowDelta
	// Failures, Recovered and Materialized sum the responses' execution
	// reports.
	Failures, Recovered, Materialized int
	Drift                             obs.DriftSnapshot
}

// runClosedLoop drives srv.Submit from clients closed-loop clients for d:
// each client sends its next request only after the previous reply, taking
// the next index of the workload's seeded request sequence. Requests sent
// before the deadline finish inside the window.
func runClosedLoop(ctx context.Context, srv *service.Server, w *Workload, answers []Answer, clients int, d time.Duration) *e2eRun {
	var next atomic.Int64
	per := make([][]served, clients)
	reports := make([][3]int, clients)
	before := takeSnapshot()
	deadline := before.wall.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				inst := w.Request(i)
				start := time.Now()
				resp, err := srv.Submit(ctx, service.Request{ID: strconv.FormatInt(i, 10), Query: w.Instances[inst].SQL})
				s := served{Req: i, Class: w.Instances[inst].Class, Latency: time.Since(start)}
				if err == nil {
					s.OK = answers[inst].matchesResponse(resp)
					s.MatConfig = resp.MatConfig
					reports[c][0] += resp.Failures
					reports[c][1] += resp.Recovered
					reports[c][2] += resp.Materialized
				}
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	run := &e2eRun{Delta: delta(before, takeSnapshot()), Drift: srv.Drift().Snapshot()}
	for c := range per {
		run.Results = append(run.Results, per[c]...)
		run.Failures += reports[c][0]
		run.Recovered += reports[c][1]
		run.Materialized += reports[c][2]
	}
	return run
}

// okCount is the number of completed, correct requests.
func (r *e2eRun) okCount() int {
	n := 0
	for _, s := range r.Results {
		if s.OK {
			n++
		}
	}
	return n
}
