package engine

import (
	"sync"
	"time"

	"ftpde/internal/obs"
	"ftpde/internal/obs/metrics"
)

// Recorder is the one place an execution's transitions are recorded. Both
// executors — the staged Coordinator and the pipelined runtime — call one
// method per transition, and that method feeds every sink the transition
// touches together: the span ring, the metrics.Exec counters and
// histograms, the wasted-work ledger, the obs.Progress stage handles and the
// Report. A timed transition reads the clock once and hands the same
// instants to every sink, so the ledger's recompute seconds are exactly the
// recovery spans' durations and a stage's histogram sample is exactly its
// span.
//
// One Recorder is built per Execute; it is safe for concurrent use.
type Recorder struct {
	runtime  string // metrics label: metrics.RuntimeStaged or RuntimePipelined
	tracer   *obs.Tracer
	metrics  *metrics.Exec
	ledger   *metrics.Ledger
	progress *obs.Progress
	// stages is filled by NewRecorder and only read afterwards, so the hot
	// path resolves a stage's progress handle without a lock.
	stages map[string]*obs.StageProgress

	mu     sync.Mutex // guards report
	report Report
}

// Origin says how a committed partition was produced.
type Origin int

const (
	// Restored partitions were read back from the fault-tolerant store.
	Restored Origin = iota
	// Computed partitions ran on the normal execution path.
	Computed
	// Recomputed partitions were re-run by fine-grained recovery.
	Recomputed
)

// NewRecorder builds the recorder for one execution of the named stages,
// each fanned out over parts partitions. A nil tracer disables spans (task
// spans then never read the clock); nil metrics or progress get a private
// sink, so every method feeds every sink unconditionally.
func NewRecorder(runtime string, tr *obs.Tracer, m *metrics.Exec, p *obs.Progress, parts int, stages []string) *Recorder {
	if m == nil {
		m = &metrics.Exec{}
	}
	if p == nil {
		p = &obs.Progress{}
	}
	r := &Recorder{runtime: runtime, tracer: tr, metrics: m, ledger: m.Ledger(), progress: p,
		stages: make(map[string]*obs.StageProgress, len(stages))}
	for _, name := range stages {
		r.stages[name] = p.EnsureStage(name, parts)
	}
	return r
}

// Report returns the execution report the recorder books into. Read it
// once the execution has returned.
func (r *Recorder) Report() *Report { return &r.report }

// span commits one finished span whose instants the caller read itself.
func (r *Recorder) span(kind obs.Kind, name string, part, attempt int, start, end time.Time, rows, bytes int64, err error) {
	if r.tracer == nil {
		return
	}
	sp := obs.Span{Kind: kind, Name: name, Part: part, Attempt: attempt, Start: start, End: end, Rows: rows, Bytes: bytes}
	if err != nil {
		sp.Err = err.Error()
	}
	r.tracer.Ingest(sp)
}

// Query opens the whole execution, coarse restarts included; call the
// returned func when it ends.
func (r *Recorder) Query(name string) (end func()) {
	start := time.Now()
	return func() { r.span(obs.KindQuery, name, -1, -1, start, time.Now(), 0, 0, nil) }
}

// Stage opens one stage's run over all its partitions. The returned func
// closes it: its wall time feeds the stage histogram, and its span carries
// the rows its committed partitions hold at that moment.
func (r *Recorder) Stage(name string) (end func()) {
	start := time.Now()
	return func() {
		now := time.Now()
		r.metrics.ObserveStageWall(r.runtime, name, now.Sub(start))
		r.span(obs.KindStage, name, -1, -1, start, now, r.stages[name].Rows(), 0, nil)
	}
}

// Task opens one partition attempt of a stage; the returned func closes it
// with the rows it produced or the error that ended it.
func (r *Recorder) Task(name string, part, attempt int) (end func(rows int, err error)) {
	if r.tracer == nil {
		return func(int, error) {}
	}
	start := time.Now()
	return func(rows int, err error) {
		r.span(obs.KindTask, name, part, attempt, start, time.Now(), int64(rows), 0, err)
	}
}

// Commit records a partition of stage landing with rows rows. Only
// partitions that ran count as produced rows; recomputed ones also count as
// recoveries.
func (r *Recorder) Commit(stage string, rows int, o Origin) {
	r.stages[stage].PartDone(int64(rows))
	if o == Restored {
		return
	}
	r.metrics.Rows.Add(int64(rows))
	r.metrics.AddStageRows(stage, int64(rows))
	if o == Recomputed {
		r.metrics.Recoveries.Add(1)
		r.mu.Lock()
		r.report.RecomputedPartitions++
		r.mu.Unlock()
	}
}

// Undo retracts a committed partition of stage that a node failure lost.
func (r *Recorder) Undo(stage string, rows int) {
	r.stages[stage].PartUndone(int64(rows))
}

// Failure records an injected node failure killing the worker that computed
// (op, part) on attempt: it opens a failure episode on the timeline and in
// the ledger. The failure is counted where it is handled — by Recovery,
// Restart, or handled for a retry in place — so concurrent detections that
// one coarse restart answers count once.
func (r *Recorder) Failure(op string, part, attempt int) {
	r.tracer.Event(obs.KindFailure, op, part, attempt)
	r.ledger.Fail(op, part)
}

// handled counts one failure as handled. Recovery and Restart count their
// own; a caller that handles a failure by retrying in place calls it.
func (r *Recorder) handled() {
	r.mu.Lock()
	r.report.Failures++
	r.mu.Unlock()
	r.metrics.Failures.Add(1)
	r.progress.Failure()
}

// Recovery handles a failure of (op, part) by fine-grained recovery and
// opens its window. The returned func closes it, booking the whole window —
// successful or not — as recompute waste: the realized w(c).
func (r *Recorder) Recovery(op string, part int) (end func(err error)) {
	r.handled()
	start := time.Now()
	return func(err error) {
		now := time.Now()
		r.ledger.Attribute(metrics.CauseRecompute, op, part, now.Sub(start))
		r.span(obs.KindRecovery, op, part, -1, start, now, 0, 0, err)
	}
}

// Restart handles a failure of (op, part) by a coarse whole-query restart.
// The aborted attempt, begun at attemptStart, is booked as restart waste.
// It reports whether the restart exceeds maxRestarts, marking the report
// aborted.
func (r *Recorder) Restart(op string, part int, attemptStart time.Time, maxRestarts int) (abort bool) {
	r.handled()
	wasted := time.Since(attemptStart)
	r.mu.Lock()
	r.report.Restarts++
	n := r.report.Restarts
	r.report.Aborted = n > maxRestarts
	r.mu.Unlock()
	r.metrics.Restarts.Add(1)
	r.progress.Restart()
	r.tracer.Event(obs.KindRestart, op, part, n)
	r.ledger.Attribute(metrics.CauseRestart, op, part, wasted)
	return n > maxRestarts
}

// Checkpoint records one partition write to the fault-tolerant store, begun
// at start. A successful write of rows rows and bytes encoded bytes counts
// as a materialized partition.
func (r *Recorder) Checkpoint(stage string, part int, start time.Time, rows int, bytes int64, err error) {
	now := time.Now()
	if err != nil {
		r.span(obs.KindCheckpoint, stage, part, -1, start, now, 0, 0, err)
		return
	}
	r.metrics.ObserveCheckpointWrite(r.runtime, now.Sub(start))
	r.metrics.CheckpointParts.Add(1)
	r.metrics.CheckpointBytes.Add(bytes)
	r.stages[stage].AddCheckpointBytes(bytes)
	r.mu.Lock()
	r.report.MaterializedPartitions++
	r.mu.Unlock()
	r.span(obs.KindCheckpoint, stage, part, -1, start, now, int64(rows), bytes, nil)
}

// Stall books d, time execution spent blocked on the checkpoint writer at
// (stage, part), as checkpoint-stall waste: the part of tm(o) the
// asynchronous writer could not hide.
func (r *Recorder) Stall(stage string, part int, d time.Duration) {
	if d > 0 {
		r.ledger.Attribute(metrics.CauseCheckpointStall, stage, part, d)
	}
}

// Batch counts one vectorized batch a pipeline operator processed.
func (r *Recorder) Batch() { r.metrics.Batches.Add(1) }
