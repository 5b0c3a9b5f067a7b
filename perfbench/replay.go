package main

import (
	"context"
	"fmt"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ftpde/internal/cost"
	"ftpde/internal/engine"
	"ftpde/internal/obs"
	"ftpde/internal/runtime"
	"ftpde/internal/sql"
	"ftpde/internal/stats"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent is the ID of the enclosing span (0 at the top).
// Times are nanoseconds since the replay began.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder hands out span IDs and stamps times relative to its epoch.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
}

func (r *recorder) newID() int64 { return r.ids.Add(1) }

func (r *recorder) span(name string, req, parent int64, start, end time.Time) span {
	return r.spanWithID(r.newID(), name, req, parent, start, end)
}

func (r *recorder) spanWithID(id int64, name string, req, parent int64, start, end time.Time) span {
	return span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()}
}

// replayer re-issues a served request sequence through the public entry
// points of the layers service.execute calls — sql.Parse, the stats cache,
// sql.BuildAuditPlan (core.Optimize inside), runtime.New/Execute — with the
// same catalog, cost parameters and shared-pool shape as the server, so the
// layers run the same code they run when served. What the service does
// around them (admission, per-query tracer and progress registration, span
// ingestion, drift observation, response formatting) is left out; the
// difference between served and replayed cost per query is the service's
// own share.
type replayer struct {
	w       *Workload
	cat     *engine.Catalog
	answers []Answer

	pool     *runtime.Pool
	injector engine.FailureInjector
	arena    *engine.Arena
	base     cost.Model
	cp       stats.CostParams
	tstats   map[string]sql.TableStats
	rec      *recorder

	statsSpans []span
	statsDur   []time.Duration
}

// newReplayer sets up a replay of w's requests. Like the server, it sizes
// its shared pool to GOMAXPROCS and seeds its failure injector with seed.
func newReplayer(w *Workload, cat *engine.Catalog, answers []Answer, seed int64) (*replayer, error) {
	r := &replayer{
		w: w, cat: cat, answers: answers,
		pool:  runtime.NewPool(goruntime.GOMAXPROCS(0)),
		arena: engine.NewArena(),
		base: cost.Model{MTBF: w.ModelMTBF, MTTR: w.ModelMTTR, Percentile: 0.95,
			PipeConst: 1, Nodes: nodes},
		cp:     stats.CostParams{CPUPerRow: w.CPUPerRow, WritePerRow: w.WritePerRow, Nodes: nodes},
		tstats: map[string]sql.TableStats{},
		rec:    &recorder{epoch: time.Now()},
	}
	if w.InjectMTBF > 0 {
		r.injector = engine.NewPoissonFailures(w.InjectMTBF, nodes, seed)
	}
	// Fill the stats cache the way the server does on first use of a table:
	// one CollectStats miss per table the instances reference.
	for _, in := range w.Instances {
		stmt, err := sql.Parse(in.SQL)
		if err != nil {
			return nil, fmt.Errorf("replay: parse %s: %w", in.Class, err)
		}
		for _, tr := range stmt.From {
			if _, ok := r.tstats[tr.Table]; ok {
				continue
			}
			start := time.Now()
			collected, err := sql.CollectStats(cat, []string{tr.Table})
			end := time.Now()
			if err != nil {
				return nil, fmt.Errorf("replay: stats %s: %w", tr.Table, err)
			}
			r.tstats[tr.Table] = collected[tr.Table]
			r.statsDur = append(r.statsDur, end.Sub(start))
			r.statsSpans = append(r.statsSpans, r.rec.span("sql.stats", -1, 0, start, end))
		}
	}
	return r, nil
}

// close releases the replay's worker pool.
func (r *replayer) close() { r.pool.Close() }

// tracedQuery is what one traced replayed request measured.
type tracedQuery struct {
	Req        int64
	Class      string
	Parse      time.Duration
	Plan       time.Duration
	Exec       time.Duration
	FTPlans    int
	Paths      int
	MatOps     int
	MatConfig  string
	Tasks      int64
	Failures   int
	Recomputed int
	WastedSec  float64
	CkptBytes  int64
	Store      *storeCounts
}

// replayWorker is one replay client: a runtime tracer reused across its
// queries (the runtime then takes its tracing path without the replay paying
// for a per-query ring, which is the service's cost) and its span buffer.
type replayWorker struct {
	tracer  *obs.Tracer
	spans   []span
	queries []tracedQuery
	failed  int
}

// serve replays request i. With traced set it records spans around every
// layer call and wraps the checkpoint store and failure injector to count
// what the runtime does with them; otherwise it calls the layers bare.
func (r *replayer) serve(ctx context.Context, wk *replayWorker, i int64, traced bool) error {
	inst := r.w.Request(i)
	in := r.w.Instances[inst]
	t0 := time.Now()
	stmt, err := sql.Parse(in.SQL)
	if err != nil {
		return fmt.Errorf("replay: parse: %w", err)
	}
	t1 := time.Now()
	tstats := make(map[string]sql.TableStats, len(stmt.From))
	for _, tr := range stmt.From {
		tstats[tr.Table] = r.tstats[tr.Table]
	}
	m := r.base.UnderLoad(r.pool.Utilization())
	t2 := time.Now()
	audit, err := sql.BuildAuditPlan(stmt, r.cat, tstats, r.cp, m)
	if err != nil {
		return fmt.Errorf("replay: plan: %w", err)
	}
	t3 := time.Now()

	metrics := &runtime.Metrics{}
	cfg := runtime.Config{
		Nodes:    nodes,
		Pool:     r.pool,
		Injector: r.injector,
		Metrics:  metrics,
		Tracer:   wk.tracer,
		Arena:    r.arena,
	}
	var reqID, execID int64
	var counts *storeCounts
	var inj *countingInjector
	if traced {
		reqID, execID = r.rec.newID(), r.rec.newID()
		counts = &storeCounts{}
		cfg.Store = wrapStore(engine.NewMatStore(), counts, r.rec, i, execID)
		inner := r.injector
		if inner == nil {
			inner = engine.NoFailures{}
		}
		inj = &countingInjector{inner: inner}
		cfg.Injector = inj
	}
	rt, err := runtime.New(cfg)
	if err != nil {
		return fmt.Errorf("replay: runtime: %w", err)
	}
	res, report, err := rt.Execute(ctx, audit.Phys.Root)
	if err != nil {
		return fmt.Errorf("replay: execute: %w", err)
	}
	t4 := time.Now()
	if !r.answers[inst].matchesRows(res.AllRows()) {
		wk.failed++
	}
	if !traced {
		return nil
	}
	t5 := time.Now()
	wk.spans = append(wk.spans,
		r.rec.spanWithID(reqID, "request", i, 0, t0, t5),
		r.rec.span("sql.parse", i, reqID, t0, t1),
		r.rec.span("sql.plan", i, reqID, t2, t3),
		r.rec.spanWithID(execID, "runtime.execute", i, reqID, t3, t4))
	wk.spans = append(wk.spans, counts.spans...)
	snap := metrics.Snapshot()
	wk.queries = append(wk.queries, tracedQuery{
		Req:        i,
		Class:      in.Class,
		Parse:      t1.Sub(t0),
		Plan:       t3.Sub(t2),
		Exec:       t4.Sub(t3),
		FTPlans:    audit.Opt.Stats.FTPlansEnumerated,
		Paths:      audit.Opt.Stats.PathsEvaluated,
		MatOps:     len(audit.Opt.Config.Materialized()),
		MatConfig:  audit.Opt.Config.String(),
		Tasks:      inj.calls.Load(),
		Failures:   report.Failures,
		Recomputed: report.RecomputedPartitions,
		WastedSec:  snap.WastedSeconds,
		CkptBytes:  snap.CheckpointBytes,
		Store:      counts,
	})
	return nil
}

// replayResult aggregates a replay.
type replayResult struct {
	Traced   []tracedQuery
	Spans    []span
	Failed   int
	Attempts int
	// Per-mode process cost: traced and bare requests interleave in blocks
	// so both modes see the same mix and the same machine state.
	TracedN, BareN        int
	TracedCPU, BareCPU    time.Duration
	BareAllocs            uint64
	PoolBusy, PoolWaiting float64
	StatsDur              []time.Duration
	ArenaHitRatio         float64
}

// replayBlocks is how many blocks a replay is cut into; even blocks are
// traced, odd ones bare.
const replayBlocks = 20

// run replays requests [0, n) with the given number of concurrent clients.
func (r *replayer) run(ctx context.Context, n int64, clients int) (*replayResult, error) {
	workers := make([]*replayWorker, clients)
	for c := range workers {
		workers[c] = &replayWorker{tracer: obs.NewTracer(1 << 12)}
	}
	stopSampler := r.samplePool()
	res := &replayResult{StatsDur: r.statsDur}
	block := n / replayBlocks
	if block < 8 {
		block = 8
	}
	for b, lo := 0, int64(0); lo < n; b, lo = b+1, lo+block {
		hi := lo + block
		if hi > n {
			hi = n
		}
		traced := b%2 == 0
		before := takeSnapshot()
		if err := r.runBlock(ctx, workers, lo, hi, traced); err != nil {
			stopSampler()
			return nil, err
		}
		d := delta(before, takeSnapshot())
		if traced {
			res.TracedN += int(hi - lo)
			res.TracedCPU += d.ProcCPU
		} else {
			res.BareN += int(hi - lo)
			res.BareCPU += d.ProcCPU
			res.BareAllocs += d.Allocs
		}
	}
	res.PoolBusy, res.PoolWaiting = stopSampler()
	res.ArenaHitRatio = r.arena.HitRatio()
	res.Attempts = int(n)
	res.Spans = append(res.Spans, r.statsSpans...)
	for _, wk := range workers {
		res.Traced = append(res.Traced, wk.queries...)
		res.Spans = append(res.Spans, wk.spans...)
		res.Failed += wk.failed
	}
	sort.Slice(res.Spans, func(a, b int) bool { return res.Spans[a].ID < res.Spans[b].ID })
	return res, nil
}

// runBlock replays requests [lo, hi) on the workers, which pull the next
// request index as they finish the previous one, like closed-loop clients.
func (r *replayer) runBlock(ctx context.Context, workers []*replayWorker, lo, hi int64, traced bool) error {
	var next atomic.Int64
	next.Store(lo)
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for c, wk := range workers {
		wg.Add(1)
		go func(c int, wk *replayWorker) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= hi {
					return
				}
				if err := r.serve(ctx, wk, i, traced); err != nil {
					errs[c] = err
					return
				}
			}
		}(c, wk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// samplePool samples the shared pool's occupancy every millisecond until
// the returned stop function is called; stop returns the mean busy share of
// its slots and the mean number of tasks waiting for one.
func (r *replayer) samplePool() func() (float64, float64) {
	done := make(chan struct{})
	var busy, waiting float64
	var n int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		capacity := float64(r.pool.Capacity())
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				busy += float64(r.pool.InUse()) / capacity
				waiting += float64(r.pool.Waiting())
				n++
			}
		}
	}()
	return func() (float64, float64) {
		close(done)
		wg.Wait()
		if n == 0 {
			return 0, 0
		}
		return busy / float64(n), waiting / float64(n)
	}
}
