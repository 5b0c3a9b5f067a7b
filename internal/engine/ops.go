package engine

import (
	"fmt"
	"sort"
)

// Operator is a physical operator of the engine. Every operator produces a
// partitioned result with one partition per cluster node, one typed columnar
// batch per partition.
//
// Narrow (partition-wise) operators read only partition p of each input to
// produce output partition p; wide operators (exchange, broadcast-join build
// sides, global aggregation) read all partitions of (some) inputs. The
// distinction drives recovery: recomputing a lost partition of a narrow
// operator needs one partition per input, a wide operator needs them all.
type Operator interface {
	// Name identifies the operator for materialization and reporting; it
	// must be unique within a query.
	Name() string
	// Inputs returns the producer operators.
	Inputs() []Operator
	// OutSchema describes the output columns. Every batch the operator
	// produces has exactly these column types.
	OutSchema() Schema
	// Materialize reports whether the output is persisted to the
	// fault-tolerant store (the engine-level m(o) flag).
	Materialize() bool
	// Wide reports whether ComputeBatch reads all partitions of its inputs.
	Wide() bool
	// ComputeBatch produces output partition part from the inputs' results
	// (nil = empty partition). Input batches are shared, committed results:
	// ComputeBatch must only read them.
	ComputeBatch(part int, inputs []*BatchResult) (*Batch, error)
	// Err reports a construction error — an expression that does not
	// compile, an out-of-range column. Executors check every operator
	// before running a plan, so such a query fails up front.
	Err() error
}

// BatchResult is an operator's output: one batch per node partition (nil =
// empty).
type BatchResult struct {
	Schema Schema
	Parts  []*Batch
	// Lost[i] marks partition i as destroyed by a node failure (volatile
	// intermediates only; materialized results never get lost).
	Lost []bool
}

// NewBatchResult creates an empty batch result with the given partition
// count.
func NewBatchResult(schema Schema, parts int) *BatchResult {
	return &BatchResult{Schema: schema, Parts: make([]*Batch, parts), Lost: make([]bool, parts)}
}

// AllRows flattens the result to boxed rows in partition order (sinks, tests).
func (r *BatchResult) AllRows() []Row {
	var out []Row
	for _, b := range r.Parts {
		out = b.AppendRows(out)
	}
	return out
}

// base provides common operator plumbing.
type base struct {
	name   string
	mat    bool
	inputs []Operator
	schema Schema
	// err is a construction error (an expression that does not compile, an
	// out-of-range column); the operator reports it when it runs.
	err error
}

func (b *base) Name() string       { return b.name }
func (b *base) Inputs() []Operator { return b.inputs }
func (b *base) OutSchema() Schema  { return b.schema }
func (b *base) Materialize() bool  { return b.mat }

// SetMaterialize flips the engine-level m(o) flag; used by schemes to apply
// a materialization configuration to an executable query.
func (b *base) SetMaterialize(m bool) { b.mat = m }

// Err implements Operator.
func (b *base) Err() error {
	if b.err == nil {
		return nil
	}
	return fmt.Errorf("engine: %s: %w", b.name, b.err)
}

// Scan reads a base table partition-wise, optionally filtering and
// projecting. Base tables are never lost (they live in the partitioned
// database, which is recovered by the DBMS itself), so Scan has no inputs.
type Scan struct {
	base
	table   *Table
	cpred   *CompiledPredicate // nil = no filter
	project []int
	once    bool
}

// NewScan creates a scan over the named table. project selects column
// indexes (nil keeps all); filter drops rows when non-truthy (nil keeps all).
// The filter is compiled against the table schema at construction.
func NewScan(name string, t *Table, filter Expr, project []int) *Scan {
	schema := t.Schema
	if project != nil {
		schema = projectSchema(t.Schema, project)
	}
	s := &Scan{base: base{name: name, schema: schema}, table: t, project: project}
	if filter != nil {
		s.cpred, s.err = CompilePredicate(filter, t.Schema)
	}
	return s
}

// NewScanOnce creates a scan over a replicated table that emits each row
// exactly once (in partition 0). Use it when a replicated table (NATION,
// REGION) feeds a broadcast join build side: a partition-wise scan would
// emit every replica and multiply join matches.
func NewScanOnce(name string, t *Table, filter Expr, project []int) *Scan {
	s := NewScan(name, t, filter, project)
	s.once = true
	return s
}

// Wide implements Operator.
func (s *Scan) Wide() bool { return false }

// ComputeBatch implements Operator (base tables have no producer inputs):
// the compiled predicate narrows a selection vector over the table's
// partition and a zero-copy column projection follows.
func (s *Scan) ComputeBatch(part int, _ []*BatchResult) (*Batch, error) {
	if err := s.Err(); err != nil {
		return nil, err
	}
	if part < 0 || part >= len(s.table.Parts) {
		return nil, fmt.Errorf("engine: scan %s partition %d out of range", s.name, part)
	}
	if s.once && part != 0 {
		return nil, nil
	}
	b := s.table.Parts[part]
	if s.cpred != nil {
		sel, err := s.cpred.Filter(b)
		if err != nil {
			return nil, err
		}
		b = &Batch{Schema: b.Schema, Cols: b.Cols, Sel: sel, nrows: b.nrows}
	}
	return b.Project(s.project, s.schema), nil
}

// Select filters rows partition-wise.
type Select struct {
	base
	cpred *CompiledPredicate
}

// NewSelect creates a filter operator. The predicate is compiled against the
// input schema at construction.
func NewSelect(name string, in Operator, pred Expr) *Select {
	s := &Select{base: base{name: name, inputs: []Operator{in}, schema: in.OutSchema()}}
	s.cpred, s.err = CompilePredicate(pred, in.OutSchema())
	return s
}

// Wide implements Operator.
func (s *Select) Wide() bool { return false }

// ComputeBatch implements Operator via the shared filter kernel.
func (s *Select) ComputeBatch(part int, inputs []*BatchResult) (*Batch, error) {
	return kernelBatches(&filterKernel{op: s}, s.schema, inputs[0].Parts[part])
}

// Project evaluates expressions partition-wise.
type Project struct {
	base
	cexprs []*CompiledExpr
}

// NewProject creates a projection; outSchema names the produced columns.
// The expressions are compiled against the input schema at construction,
// and each output column takes its type from its compiled expression.
func NewProject(name string, in Operator, exprs []Expr, outSchema Schema) *Project {
	schema := append(Schema(nil), outSchema...)
	p := &Project{base: base{name: name, inputs: []Operator{in}, schema: schema}}
	if len(exprs) != len(outSchema) {
		p.err = fmt.Errorf("%d expressions for %d output columns", len(exprs), len(outSchema))
		return p
	}
	p.cexprs = make([]*CompiledExpr, len(exprs))
	for i, e := range exprs {
		ce, err := Compile(e, in.OutSchema())
		if err != nil {
			p.err = err
			return p
		}
		p.cexprs[i] = ce
		schema[i].Type = ce.Type
	}
	return p
}

// Wide implements Operator.
func (p *Project) Wide() bool { return false }

// ComputeBatch implements Operator via the shared projection kernel.
func (p *Project) ComputeBatch(part int, inputs []*BatchResult) (*Batch, error) {
	return kernelBatches(&projectKernel{op: p}, p.schema, inputs[0].Parts[part])
}

// Exchange hash-repartitions its input on a key column — the engine's
// repartitioning operator (wide: every output partition reads every input
// partition, like an MPP shuffle).
type Exchange struct {
	base
	keyCol int
}

// NewExchange creates a shuffle on the given key column.
func NewExchange(name string, in Operator, keyCol int) *Exchange {
	e := &Exchange{base: base{name: name, inputs: []Operator{in}, schema: in.OutSchema()}, keyCol: keyCol}
	if keyCol < 0 || keyCol >= len(e.schema) {
		e.err = fmt.Errorf("key column %d out of range", keyCol)
	}
	return e
}

// Wide implements Operator.
func (e *Exchange) Wide() bool { return true }

// ComputeBatch implements Operator: the vectorized repartitioning. Each
// input batch is hashed column-wise on the key (with hashVectorAt, the hash
// tables are partitioned by), the positions belonging to this output
// partition are collected into a selection vector, and one column-wise
// gather appends them to the output builder.
func (e *Exchange) ComputeBatch(part int, inputs []*BatchResult) (*Batch, error) {
	if err := e.Err(); err != nil {
		return nil, err
	}
	in := inputs[0]
	n := uint64(len(in.Parts))
	bb := NewBatchBuilder(e.schema)
	var sel []int32 // scatter scratch, reused across input partitions
	for _, b := range in.Parts {
		if b.Len() == 0 {
			continue
		}
		key := &b.Cols[e.keyCol]
		m := b.Len()
		sel = sel[:0]
		for i := 0; i < m; i++ {
			p := i
			if b.Sel != nil {
				p = int(b.Sel[i])
			}
			if int(hashVectorAt(key, p)%n) == part {
				sel = append(sel, int32(p))
			}
		}
		bb.AppendSel(b, sel)
	}
	return bb.Finish(), nil
}

// HashJoin joins a broadcast build side with a partition-wise probe side.
// The build input (inputs[0]) is read in full by every partition (broadcast
// join, suited to the smaller side); the probe input (inputs[1]) is read
// partition-wise. Output schema is probe columns followed by build columns.
type HashJoin struct {
	base
	buildKey, probeKey int
}

// NewHashJoin creates a broadcast hash join.
func NewHashJoin(name string, build, probe Operator, buildKey, probeKey int) *HashJoin {
	schema := append(append(Schema{}, probe.OutSchema()...), build.OutSchema()...)
	j := &HashJoin{
		base:     base{name: name, inputs: []Operator{build, probe}, schema: schema},
		buildKey: buildKey, probeKey: probeKey,
	}
	switch {
	case buildKey < 0 || buildKey >= len(build.OutSchema()):
		j.err = fmt.Errorf("build key %d out of range", buildKey)
	case probeKey < 0 || probeKey >= len(probe.OutSchema()):
		j.err = fmt.Errorf("probe key %d out of range", probeKey)
	}
	return j
}

// Wide implements Operator. The build side is read in full; recovery of any
// partition therefore needs all build partitions (and one probe partition —
// the engine conservatively treats the operator as wide).
func (j *HashJoin) Wide() bool { return true }

// ComputeBatch implements Operator: the vectorized broadcast hash join. The
// build side is concatenated into one dense columnar batch per output
// partition and indexed once (hash → dense row positions, in (partition,
// row) insertion order); the probe then scans its partition emitting a
// matching (probe position, build position) selection-vector pair, and a
// single column-wise gather materializes the output vectors — probe columns
// followed by build columns, rows in probe order with in-bucket build order.
// Hash collisions are resolved with a typed key comparison.
func (j *HashJoin) ComputeBatch(part int, inputs []*BatchResult) (*Batch, error) {
	if err := j.Err(); err != nil {
		return nil, err
	}
	probeB := inputs[1].Parts[part]
	if probeB.Len() == 0 {
		return nil, nil
	}
	bb := NewBatchBuilder(j.inputs[0].OutSchema())
	for _, b := range inputs[0].Parts {
		bb.Append(b)
	}
	dense := bb.Finish()
	if dense == nil {
		return nil, nil
	}
	buildKeyVec := &dense.Cols[j.buildKey]
	nb := dense.Len()
	ht := make(map[uint64][]int32, nb)
	for i := 0; i < nb; i++ {
		h := hashVectorAt(buildKeyVec, i)
		ht[h] = append(ht[h], int32(i))
	}

	probeKeyVec := &probeB.Cols[j.probeKey]
	var probeSel, buildSel []int32
	np := probeB.Len()
	for i := 0; i < np; i++ {
		p := i
		if probeB.Sel != nil {
			p = int(probeB.Sel[i])
		}
		for _, bi := range ht[hashVectorAt(probeKeyVec, p)] {
			cmp, err := compareVecVals(probeKeyVec, p, buildKeyVec, int(bi))
			if err != nil {
				return nil, err
			}
			if cmp != 0 {
				continue // hash collision
			}
			probeSel = append(probeSel, int32(p))
			buildSel = append(buildSel, bi)
		}
	}
	if len(probeSel) == 0 {
		return nil, nil
	}

	cols := make([]Vector, len(probeB.Cols)+len(dense.Cols))
	for ci := range probeB.Cols {
		cols[ci] = probeB.Cols[ci].gather(probeSel)
	}
	for ci := range dense.Cols {
		cols[len(probeB.Cols)+ci] = dense.Cols[ci].gather(buildSel)
	}
	return &Batch{Schema: j.schema, Cols: cols, nrows: len(probeSel)}, nil
}

// AggKind enumerates aggregate functions.
type AggKind int

// Aggregate functions.
const (
	AggSum AggKind = iota
	AggCount
	AggMin
	AggMax
	AggAvg
)

// AggSpec is one aggregate over an input column.
type AggSpec struct {
	Kind AggKind
	Col  int // ignored for AggCount
}

// HashAggregate groups rows and computes aggregates. When Global is set the
// operator gathers all partitions into output partition 0 (a final/gather
// aggregation); otherwise it aggregates partition-wise (requires the input
// to be partitioned on the group key, e.g. via Exchange).
type HashAggregate struct {
	base
	groupCols []int
	aggs      []AggSpec
	global    bool
}

// NewHashAggregate creates an aggregation. outSchema names the
// len(groupCols)+len(aggs) output columns; their types follow from the
// grouped input columns and the aggregate kinds (COUNT is int, SUM and AVG
// are float, MIN and MAX keep their input column's type).
func NewHashAggregate(name string, in Operator, groupCols []int, aggs []AggSpec, global bool, outSchema Schema) *HashAggregate {
	schema := append(Schema(nil), outSchema...)
	a := &HashAggregate{
		base:      base{name: name, inputs: []Operator{in}, schema: schema},
		groupCols: groupCols, aggs: aggs, global: global,
	}
	inS := in.OutSchema()
	if len(schema) != len(groupCols)+len(aggs) {
		a.err = fmt.Errorf("%d output columns for %d groups and %d aggregates", len(schema), len(groupCols), len(aggs))
		return a
	}
	for i, g := range groupCols {
		if g < 0 || g >= len(inS) {
			a.err = fmt.Errorf("group column %d out of range", g)
			return a
		}
		schema[i].Type = inS[g].Type
	}
	for i, spec := range aggs {
		t := TypeInt // AggCount
		if spec.Kind != AggCount {
			if spec.Col < 0 || spec.Col >= len(inS) {
				a.err = fmt.Errorf("aggregate column %d out of range", spec.Col)
				return a
			}
			t = inS[spec.Col].Type
		}
		switch spec.Kind {
		case AggSum, AggAvg:
			if t == TypeString {
				a.err = fmt.Errorf("aggregate over non-numeric string")
				return a
			}
			t = TypeFloat
		case AggCount, AggMin, AggMax:
		default:
			a.err = fmt.Errorf("unknown aggregate kind %d", int(spec.Kind))
			return a
		}
		schema[len(groupCols)+i].Type = t
	}
	return a
}

// Wide implements Operator.
func (a *HashAggregate) Wide() bool { return a.global }

// ComputeBatch implements Operator via the shared aggregation kernel. The
// global form is the final-aggregation merge — every input partition's
// batch folds into one accumulator table in partition 0; partition-wise
// aggregation folds just its own partition.
func (a *HashAggregate) ComputeBatch(part int, inputs []*BatchResult) (*Batch, error) {
	if !a.global {
		return kernelBatches(newAggKernel(a, nil), a.schema, inputs[0].Parts[part])
	}
	if part != 0 {
		return nil, nil
	}
	return kernelBatches(newAggKernel(a, nil), a.schema, inputs[0].Parts...)
}

// Sort orders rows globally by a column (gathers into partition 0).
type Sort struct {
	base
	col  int
	desc bool
}

// NewSort creates a global sort.
func NewSort(name string, in Operator, col int, desc bool) *Sort {
	s := &Sort{base: base{name: name, inputs: []Operator{in}, schema: in.OutSchema()}, col: col, desc: desc}
	if col < 0 || col >= len(s.schema) {
		s.err = fmt.Errorf("sort column %d out of range", col)
	}
	return s
}

// Wide implements Operator.
func (s *Sort) Wide() bool { return true }

// ComputeBatch implements Operator: a global sort as one stable index sort
// over the dense concatenation of all input partitions (in partition order),
// followed by a column-wise gather in sorted order. Numeric keys compare
// through float64.
func (s *Sort) ComputeBatch(part int, inputs []*BatchResult) (*Batch, error) {
	if err := s.Err(); err != nil {
		return nil, err
	}
	if part != 0 {
		return nil, nil
	}
	bb := NewBatchBuilder(s.schema)
	for _, b := range inputs[0].Parts {
		bb.Append(b)
	}
	dense := bb.Finish()
	if dense == nil {
		return nil, nil
	}
	n := dense.Len()
	col := &dense.Cols[s.col]
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(i, j int) bool {
		c, _ := compareVecVals(col, int(idx[i]), col, int(idx[j])) // one column: never fails
		if s.desc {
			return c > 0
		}
		return c < 0
	})
	cols := make([]Vector, len(dense.Cols))
	for ci := range dense.Cols {
		cols[ci] = dense.Cols[ci].gather(idx)
	}
	return &Batch{Schema: s.schema, Cols: cols, nrows: n}, nil
}

// compareVecVals compares typed vector elements: numeric types compare
// through float64 (including int64 values, whose coercion can lose
// precision above 2^53), strings compare lexicographically, and mixed
// numeric/string comparisons fail.
func compareVecVals(a *Vector, i int, b *Vector, j int) (int, error) {
	if a.Type != TypeString {
		if b.Type == TypeString {
			return 0, fmt.Errorf("engine: cannot compare %s with %s", goTypeName(a.Type), goTypeName(b.Type))
		}
		fa, fb := numAt(a, i), numAt(b, j)
		switch {
		case fa < fb:
			return -1, nil
		case fa > fb:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if b.Type != TypeString {
		return 0, fmt.Errorf("engine: cannot compare string with %s", goTypeName(b.Type))
	}
	sa, sb := a.Strings[i], b.Strings[j]
	switch {
	case sa < sb:
		return -1, nil
	case sa > sb:
		return 1, nil
	default:
		return 0, nil
	}
}

func projectSchema(s Schema, cols []int) Schema {
	out := make(Schema, len(cols))
	for i, c := range cols {
		out[i] = s[c]
	}
	return out
}
