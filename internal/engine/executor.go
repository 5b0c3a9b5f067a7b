package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ftpde/internal/obs"
	"ftpde/internal/obs/metrics"
	"ftpde/internal/obs/prof"
)

// FailureInjector decides whether the node hosting partition `part` dies
// while computing (op, part) on the given attempt (0 = first try).
// Implementations must eventually return false for increasing attempts or
// execution cannot finish.
type FailureInjector interface {
	FailCompute(op string, part, attempt int) bool
}

// NoFailures never injects a failure.
type NoFailures struct{}

// FailCompute implements FailureInjector.
func (NoFailures) FailCompute(string, int, int) bool { return false }

// ScriptedFailures injects failures at scripted (op, partition, attempt)
// points — the engine-level analogue of the paper's failure traces. It is
// safe for concurrent use: partition workers read the script while tests
// (or an interactive driver) extend it.
type ScriptedFailures struct {
	mu     sync.Mutex
	script map[string]bool
}

// NewScriptedFailures returns an empty script.
func NewScriptedFailures() *ScriptedFailures {
	return &ScriptedFailures{script: make(map[string]bool)}
}

// Add schedules a failure when op's partition is computed the given attempt.
func (s *ScriptedFailures) Add(op string, part, attempt int) *ScriptedFailures {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.script[fmt.Sprintf("%s/%d/%d", op, part, attempt)] = true
	return s
}

// FailCompute implements FailureInjector.
func (s *ScriptedFailures) FailCompute(op string, part, attempt int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.script[fmt.Sprintf("%s/%d/%d", op, part, attempt)]
}

// MatStore is the fault-tolerant storage medium for materialized
// intermediates (the paper's external iSCSI storage): writes survive node
// failures.
type MatStore struct {
	mu   sync.Mutex
	data map[string][][]Row
}

// NewMatStore returns an empty store.
func NewMatStore() *MatStore {
	return &MatStore{data: make(map[string][][]Row)}
}

// Put stores one partition of an operator's output. The in-memory store
// cannot fail, so the error is always nil.
func (m *MatStore) Put(op string, part int, rows []Row, parts int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ps, ok := m.data[op]
	if !ok {
		ps = make([][]Row, parts)
		m.data[op] = ps
	}
	ps[part] = rows
	return nil
}

// Get returns one stored partition; ok reports whether it exists.
func (m *MatStore) Get(op string, part int) ([]Row, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ps, ok := m.data[op]
	if !ok || part >= len(ps) || ps[part] == nil {
		return nil, false
	}
	return ps[part], true
}

// Len returns the number of operators with stored output.
func (m *MatStore) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.data)
}

// Report summarizes an execution.
type Report struct {
	// Failures counts injected node failures.
	Failures int
	// RecomputedPartitions counts partition computations re-done during
	// fine-grained recovery (lineage recomputation).
	RecomputedPartitions int
	// Restarts counts full-query restarts (coarse recovery).
	Restarts int
	// MaterializedPartitions counts partitions written to the FT store.
	MaterializedPartitions int
	// Aborted is set when MaxRestarts was exceeded.
	Aborted bool
}

// Coordinator schedules a query DAG over the simulated cluster, monitors for
// (injected) worker failures and recovers: fine-grained by recomputing lost
// partitions from the last materialized intermediates, or coarse-grained by
// restarting the whole query.
type Coordinator struct {
	// Nodes is the cluster size (= partition count of every intermediate).
	Nodes int
	// Injector provides failure decisions; nil means no failures.
	Injector FailureInjector
	// Coarse switches to restart-the-query recovery.
	Coarse bool
	// MaxRestarts bounds coarse recovery (0 = 100, as in the paper).
	MaxRestarts int
	// Store is the fault-tolerant medium; nil allocates a fresh one.
	Store Store
	// Tracer receives execution spans and failure/recovery events; nil
	// disables tracing.
	Tracer *obs.Tracer
	// Metrics receives counters, latency histograms and wasted-work ledger
	// entries; nil keeps them private to the execution. The type is shared
	// with the pipelined runtime, so one Exec can aggregate both.
	Metrics *metrics.Exec
	// Progress receives live per-operator completion for /debug/queries; nil
	// keeps it private to the execution.
	Progress *obs.Progress
	// ProfLabels are the query-level pprof labels (query, tenant) every
	// worker goroutine runs under when continuous profiling is on; the
	// executor adds per-operator stage/op/attempt labels on top. Zero cost
	// while no sampler is running.
	ProfLabels prof.Labels
}

const maxAttemptsPerPartition = 1000

type execState struct {
	co       *Coordinator
	results  map[Operator]*BatchResult
	done     map[Operator][]bool
	attempts map[string]int
	rec      *Recorder
	order    []Operator
	// pctx carries the query-level pprof labels; partition workers re-apply
	// them (labels are goroutine-local) and refine with per-operator labels.
	pctx context.Context
}

// Execute runs the query rooted at root and returns its partitioned result.
func (co *Coordinator) Execute(root Operator) (*BatchResult, *Report, error) {
	if co.Nodes <= 0 {
		return nil, nil, fmt.Errorf("engine: coordinator needs at least one node")
	}
	if co.Injector == nil {
		co.Injector = NoFailures{}
	}
	if co.Store == nil {
		co.Store = NewMatStore()
	}
	order, err := topoSort(root)
	if err != nil {
		return nil, nil, err
	}
	maxRestarts := co.MaxRestarts
	if maxRestarts == 0 {
		maxRestarts = 100
	}
	names := make([]string, len(order))
	for i, op := range order {
		names[i] = op.Name()
	}
	rec := NewRecorder(metrics.RuntimeStaged, co.Tracer, co.Metrics, co.Progress, co.Nodes, names)
	defer rec.Query(root.Name())()

	// Attempts persist across coarse restarts so scripted failure traces
	// advance (a restarted query re-runs every operator, but the trace has
	// moved on).
	attempts := make(map[string]int)
	for {
		attemptStart := time.Now()
		st := &execState{
			co:       co,
			results:  make(map[Operator]*BatchResult),
			done:     make(map[Operator][]bool),
			attempts: attempts,
			rec:      rec,
			order:    order,
		}
		// The coordinator goroutine itself does real work (commit, checkpoint
		// encode, recovery), so it runs labeled too; workers inherit the
		// query-level labels through st.pctx.
		var res *BatchResult
		prof.Do(context.Background(), co.ProfLabels, func(ctx context.Context) {
			st.pctx = ctx
			res, err = st.run(root)
		})
		if err == nil {
			return res, rec.Report(), nil
		}
		var rf *restartFailure
		if co.Coarse && asRestart(err, &rf) {
			// The aborted attempt's elapsed time is the realized coarse w(c).
			if rec.Restart(rf.op, rf.part, attemptStart, maxRestarts) {
				return nil, rec.Report(), fmt.Errorf("engine: query aborted after %d restarts", maxRestarts)
			}
			continue // restart from scratch
		}
		return nil, rec.Report(), err
	}
}

// restartFailure signals a node failure under coarse recovery.
type restartFailure struct {
	op   string
	part int
}

// errNodeFailure labels a task span killed by an injected node failure.
var errNodeFailure = errors.New("node failure")

func (r *restartFailure) Error() string {
	return fmt.Sprintf("engine: node %d failed while computing %s", r.part, r.op)
}

func asRestart(err error, target **restartFailure) bool {
	rf, ok := err.(*restartFailure)
	if ok {
		*target = rf
	}
	return ok
}

func (st *execState) run(root Operator) (*BatchResult, error) {
	for _, op := range st.order {
		if err := st.computeAll(op); err != nil {
			return nil, err
		}
	}
	return st.results[root], nil
}

// computeAll produces every partition of op: the failure-free path runs
// partition workers in parallel goroutines; injected failures are then
// recovered sequentially.
func (st *execState) computeAll(op Operator) error {
	st.ensureResult(op)
	parts := st.co.Nodes
	defer st.rec.Stage(op.Name())()

	// An earlier recovery may have dropped partitions of inputs computed
	// before the failure; restore them before the parallel pass reads them.
	for _, in := range op.Inputs() {
		for p := 0; p < parts; p++ {
			if !st.done[in][p] {
				if err := st.ensure(in, p); err != nil {
					return err
				}
			}
		}
	}

	type outcome struct {
		part      int
		b         *Batch
		failed    bool
		fromStore bool
		err       error
	}
	out := make([]outcome, parts)
	var wg sync.WaitGroup
	for part := 0; part < parts; part++ {
		// Already restored from the FT store?
		if st.done[op][part] {
			continue
		}
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			// Worker goroutines do not inherit the coordinator's pprof
			// labels; re-apply them from the query context with this task's
			// operator and attempt on top.
			attempt := st.attempts[attemptKey(op, part)]
			prof.Do(st.pctx, prof.Labels{
				Stage: op.Name(), Op: op.Name(), Attempt: prof.AttemptLabel(attempt),
			}, func(context.Context) {
				if op.Materialize() {
					if b, ok, err := GetBatch(st.co.Store, op, part); ok || err != nil {
						out[part] = outcome{part: part, b: b, fromStore: true, err: err}
						return
					}
				}
				end := st.rec.Task(op.Name(), part, attempt)
				if st.co.Injector.FailCompute(op.Name(), part, attempt) {
					st.rec.Failure(op.Name(), part, attempt)
					end(0, errNodeFailure)
					out[part] = outcome{part: part, failed: true}
					return
				}
				b, err := op.ComputeBatch(part, st.inputResults(op))
				end(b.Len(), err)
				out[part] = outcome{part: part, b: b, err: err}
			})
		}(part)
	}
	wg.Wait()

	var failedParts []int
	for part := 0; part < parts; part++ {
		if st.done[op][part] {
			continue
		}
		o := out[part]
		if o.err != nil {
			return o.err
		}
		if o.failed {
			failedParts = append(failedParts, part)
			continue
		}
		origin := Restored
		if !o.fromStore {
			st.attempts[attemptKey(op, part)]++
			origin = Computed
		}
		if err := st.commit(op, part, o.b, origin); err != nil {
			return err
		}
	}

	for _, part := range failedParts {
		st.attempts[attemptKey(op, part)]++
		if st.co.Coarse {
			return &restartFailure{op: op.Name(), part: part}
		}
		st.dropVolatileOnNode(part)
		end := st.rec.Recovery(op.Name(), part)
		err := st.ensure(op, part)
		end(err)
		if err != nil {
			return err
		}
	}
	return nil
}

// ensure recursively (re)computes one partition, recovering lost inputs
// first — the lineage walk of fine-grained recovery. Failure events emitted
// here are resolved by the recovery span its caller opens.
//
//lint:spanpair computeAll
func (st *execState) ensure(op Operator, part int) error {
	st.ensureResult(op)
	if st.done[op][part] {
		return nil
	}
	// Materialized output survives failures: restore from the FT store.
	if op.Materialize() {
		if b, ok, err := GetBatch(st.co.Store, op, part); err != nil {
			return err
		} else if ok {
			return st.commit(op, part, b, Restored)
		}
	}
	// Recover inputs: narrow operators need partition `part`, wide operators
	// need every partition of every input.
	for _, in := range op.Inputs() {
		if op.Wide() {
			for p := 0; p < st.co.Nodes; p++ {
				if err := st.ensure(in, p); err != nil {
					return err
				}
			}
		} else if err := st.ensure(in, part); err != nil {
			return err
		}
	}
	key := attemptKey(op, part)
	for {
		attempt := st.attempts[key]
		if attempt > maxAttemptsPerPartition {
			return fmt.Errorf("engine: partition %d of %s exceeded %d attempts", part, op.Name(), maxAttemptsPerPartition)
		}
		if st.co.Injector.FailCompute(op.Name(), part, attempt) {
			st.rec.Failure(op.Name(), part, attempt)
			st.attempts[key]++
			if st.co.Coarse {
				return &restartFailure{op: op.Name(), part: part}
			}
			st.rec.handled()
			st.dropVolatileOnNode(part)
			// Inputs may have been lost again; recover them before retrying.
			for _, in := range op.Inputs() {
				if op.Wide() {
					for p := 0; p < st.co.Nodes; p++ {
						if err := st.ensure(in, p); err != nil {
							return err
						}
					}
				} else if err := st.ensure(in, part); err != nil {
					return err
				}
			}
			continue
		}
		end := st.rec.Task(op.Name(), part, attempt)
		var b *Batch
		var err error
		prof.Do(st.pctx, prof.Labels{
			Stage: op.Name(), Op: op.Name(), Attempt: prof.AttemptLabel(attempt),
		}, func(context.Context) {
			b, err = op.ComputeBatch(part, st.inputResults(op))
		})
		end(b.Len(), err)
		if err != nil {
			return err
		}
		st.attempts[key]++
		return st.commit(op, part, b, Recomputed)
	}
}

// commit records a partition produced as origin says and persists it when
// materialized. A store write failure is returned: recovery must never
// proceed believing a checkpoint exists that never durably landed.
func (st *execState) commit(op Operator, part int, b *Batch, origin Origin) error {
	if b.Len() == 0 {
		b = nil // canonical empty-partition representation
	}
	res := st.ensureResult(op)
	res.Parts[part] = b
	res.Lost[part] = false
	if !st.done[op][part] {
		st.rec.Commit(op.Name(), b.Len(), origin)
	}
	st.done[op][part] = true
	if op.Materialize() {
		if _, already := st.co.Store.Get(op.Name(), part); !already {
			// Checkpoint encode + write is CPU the operator caused; label it
			// so the profiler's join books it against the right op.
			var perr error
			prof.Do(st.pctx, prof.Labels{Stage: op.Name(), Op: op.Name()}, func(context.Context) {
				start := time.Now()
				err := st.co.Store.Put(op.Name(), part, b.ToRows(), st.co.Nodes)
				st.rec.Checkpoint(op.Name(), part, start, b.Len(), EncodedSize(b), err)
				if err != nil {
					perr = fmt.Errorf("engine: materialize %s/%d: %w", op.Name(), part, err)
				}
			})
			if perr != nil {
				return perr
			}
		}
	}
	return nil
}

// dropVolatileOnNode models the loss of all in-memory (non-materialized)
// intermediate partitions hosted on the failed node.
func (st *execState) dropVolatileOnNode(node int) {
	for op, res := range st.results {
		if op.Materialize() {
			continue
		}
		// Base-table scans read the partitioned database, which the DBMS
		// recovers itself; their output is recomputable state that is
		// nonetheless lost.
		if st.done[op][node] {
			rows := res.Parts[node].Len()
			res.Parts[node] = nil
			res.Lost[node] = true
			st.done[op][node] = false
			st.rec.Undo(op.Name(), rows)
		}
	}
}

func (st *execState) ensureResult(op Operator) *BatchResult {
	res, ok := st.results[op]
	if !ok {
		res = NewBatchResult(op.OutSchema(), st.co.Nodes)
		st.results[op] = res
		st.done[op] = make([]bool, st.co.Nodes)
	}
	return res
}

func (st *execState) inputResults(op Operator) []*BatchResult {
	ins := op.Inputs()
	out := make([]*BatchResult, len(ins))
	for i, in := range ins {
		out[i] = st.results[in]
	}
	return out
}

func attemptKey(op Operator, part int) string {
	return fmt.Sprintf("%s/%d", op.Name(), part)
}

// topoSort orders the DAG producers-first, deduplicating shared sub-plans by
// operator identity, and rejects operators with construction errors and
// duplicate operator names (which would collide in the materialization
// store).
func topoSort(root Operator) ([]Operator, error) {
	var order []Operator
	seen := make(map[Operator]bool)
	names := make(map[string]bool)
	var visit func(op Operator) error
	visit = func(op Operator) error {
		if seen[op] {
			return nil
		}
		seen[op] = true
		for _, in := range op.Inputs() {
			if err := visit(in); err != nil {
				return err
			}
		}
		if err := op.Err(); err != nil {
			return err
		}
		if names[op.Name()] {
			return fmt.Errorf("engine: duplicate operator name %q in query", op.Name())
		}
		names[op.Name()] = true
		order = append(order, op)
		return nil
	}
	if err := visit(root); err != nil {
		return nil, err
	}
	return order, nil
}
