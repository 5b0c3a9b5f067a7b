package engine

import (
	"sort"
	"strconv"
)

// BatchKernel is the batch-at-a-time implementation of a narrow operator.
// Process consumes one input batch and returns the output produced so far
// (nil when the kernel buffers, e.g. aggregation); Flush emits whatever state
// remains at end of stream. A kernel instance serves exactly one partition
// stream — stateful kernels are created fresh per attempt.
//
// Kernels are the single implementation of each narrow operator: the staged
// Coordinator feeds them whole partitions through the operators'
// ComputeBatch, the pipelined runtime feeds them batches straight off its
// channels.
type BatchKernel interface {
	Process(b *Batch) (*Batch, error)
	Flush() (*Batch, error)
}

// NewOperatorKernel returns a fresh kernel for op, or false when the operator
// has no batch kernel (wide or multi-input operators compute whole
// partitions).
func NewOperatorKernel(op Operator) (BatchKernel, bool) {
	return NewOperatorKernelLocal(op, nil)
}

// NewOperatorKernelLocal is NewOperatorKernel with an arena Local attached:
// the kernel draws its output buffers from loc and consumes (releases) each
// input batch it successfully processes, so a pipelined chain of kernels
// recycles its buffers batch over batch. A nil loc disables recycling — the
// kernel then neither pools outputs nor releases inputs, which is the staged
// executor's mode.
func NewOperatorKernelLocal(op Operator, loc *Local) (BatchKernel, bool) {
	switch o := op.(type) {
	case *Select:
		return &filterKernel{op: o, loc: loc}, true
	case *Project:
		return &projectKernel{op: o, loc: loc}, true
	case *HashAggregate:
		return newAggKernel(o, loc), true
	case *Limit:
		return &limitKernel{remaining: o.n, loc: loc}, true
	default:
		return nil, false
	}
}

// kernelBatches feeds whole input batches through a kernel and concatenates
// the outputs — how the operators' ComputeBatch reaches their kernels
// (including wide ones: final aggregation merge, limit over all parts).
// Inputs are only read; single-batch outputs pass through without copying.
func kernelBatches(k BatchKernel, outSchema Schema, ins ...*Batch) (*Batch, error) {
	var outs []*Batch
	for _, in := range ins {
		if in.Len() == 0 {
			continue
		}
		ob, err := k.Process(in)
		if err != nil {
			return nil, err
		}
		if ob.Len() > 0 {
			outs = append(outs, ob)
		}
	}
	fb, err := k.Flush()
	if err != nil {
		return nil, err
	}
	if fb.Len() > 0 {
		outs = append(outs, fb)
	}
	switch len(outs) {
	case 0:
		return nil, nil
	case 1:
		return outs[0], nil
	}
	bb := NewBatchBuilder(outSchema)
	for _, ob := range outs {
		bb.Append(ob)
	}
	return bb.Finish(), nil
}

// filterKernel applies a Select predicate: the compiled predicate narrows
// the selection vector without touching column data.
type filterKernel struct {
	op  *Select
	loc *Local
}

func (k *filterKernel) Process(b *Batch) (*Batch, error) {
	if err := k.op.Err(); err != nil {
		return nil, err
	}
	sel, err := k.op.cpred.filterInto(b, k.loc)
	if err != nil {
		return nil, err
	}
	if k.loc == nil {
		// Staged mode: the input may be a shared committed batch, so it is
		// only read — the output aliases its columns under a new shell.
		return &Batch{Schema: b.Schema, Cols: b.Cols, Sel: sel, nrows: b.nrows}, nil
	}
	// Transfer the input's column storage to the output and recycle the
	// input's shell before drawing the output's, so in the steady state
	// the same shell cycles between input and output.
	cols, colsPooled := b.takeCols()
	schema, nrows := b.Schema, b.nrows
	b.releaseShell(k.loc)
	out := k.loc.newBatch()
	out.Schema = schema
	out.Cols = cols
	out.colsPooled = colsPooled
	out.Sel = sel
	out.selPooled = true
	out.nrows = nrows
	return out, nil
}

func (k *filterKernel) Flush() (*Batch, error) { return nil, nil }

// projectKernel evaluates Project expressions: compiled expressions produce
// the output vectors directly.
type projectKernel struct {
	op  *Project
	loc *Local
}

func (k *projectKernel) Process(b *Batch) (*Batch, error) {
	if err := k.op.Err(); err != nil {
		return nil, err
	}
	n := b.Len()
	cols := k.loc.cols(len(k.op.cexprs))
	for i, ce := range k.op.cexprs {
		v, err := ce.eval(b, b.Sel, k.loc)
		if err != nil {
			return nil, err
		}
		cols[i] = v
	}
	// With an arena attached the evaluated vectors are copies, so the
	// input (storage and shell) recycles before the output shell is
	// drawn; without one they may alias b, which stays untouched.
	b.Release(k.loc)
	out := k.loc.newBatch()
	out.Schema = k.op.schema
	out.Cols = cols
	out.colsPooled = k.loc != nil
	out.nrows = n
	return out, nil
}

func (k *projectKernel) Flush() (*Batch, error) { return nil, nil }

// aggKernel is the stateful grouping kernel behind HashAggregate: it
// accumulates typed per-group state across batches and emits the groups,
// sorted by signature, at Flush. Group i's state sits at position i of every
// accumulator, so nothing is boxed.
type aggKernel struct {
	op     *HashAggregate
	loc    *Local
	groups map[string]int32 // group signature → group index
	sigs   []string         // group index → signature
	keys   []Vector         // per group column: the group's key value
	count  []int64          // rows per group
	sums   [][]float64      // per SUM/AVG aggregate: running sum per group
	ext    []Vector         // per MIN/MAX aggregate: running extreme per group
	sig    []byte           // reused per-row signature buffer
}

func newAggKernel(op *HashAggregate, loc *Local) *aggKernel {
	k := &aggKernel{op: op, loc: loc, groups: make(map[string]int32)}
	if op.err != nil {
		return k
	}
	// Key and MIN/MAX outputs have their input column's type.
	k.keys = make([]Vector, len(op.groupCols))
	for i := range k.keys {
		k.keys[i].Type = op.schema[i].Type
	}
	k.sums = make([][]float64, len(op.aggs))
	k.ext = make([]Vector, len(op.aggs))
	for i := range k.ext {
		k.ext[i].Type = op.schema[len(op.groupCols)+i].Type
	}
	return k
}

// appendSigValue renders one group-key value (as fmt's %v would) followed
// by a separator.
func appendSigValue(dst []byte, v *Vector, p int) []byte {
	switch v.Type {
	case TypeInt:
		dst = strconv.AppendInt(dst, v.Ints[p], 10)
	case TypeFloat:
		dst = strconv.AppendFloat(dst, v.Floats[p], 'g', -1, 64)
	default:
		dst = append(dst, v.Strings[p]...)
	}
	return append(dst, '|')
}

func (k *aggKernel) Process(b *Batch) (*Batch, error) {
	a := k.op
	if err := a.Err(); err != nil {
		return nil, err
	}
	n := b.Len()
	for i := 0; i < n; i++ {
		p := i
		if b.Sel != nil {
			p = int(b.Sel[i])
		}
		k.sig = k.sig[:0]
		for _, g := range a.groupCols {
			k.sig = appendSigValue(k.sig, &b.Cols[g], p)
		}
		g, ok := k.groups[string(k.sig)]
		if !ok {
			g = int32(len(k.sigs))
			sig := string(k.sig)
			k.groups[sig] = g
			k.sigs = append(k.sigs, sig)
			for gi, c := range a.groupCols {
				k.keys[gi].appendFrom(&b.Cols[c], p)
			}
			k.count = append(k.count, 0)
			for si, spec := range a.aggs {
				switch spec.Kind {
				case AggSum, AggAvg:
					k.sums[si] = append(k.sums[si], 0)
				case AggMin, AggMax:
					k.ext[si].appendFrom(&b.Cols[spec.Col], p)
				}
			}
		}
		k.count[g]++
		for si, spec := range a.aggs {
			switch spec.Kind {
			case AggSum, AggAvg:
				k.sums[si][g] += numAt(&b.Cols[spec.Col], p)
			case AggMin, AggMax:
				// One column's values share a type: the comparison cannot fail.
				c, _ := compareVecVals(&b.Cols[spec.Col], p, &k.ext[si], int(g))
				if (spec.Kind == AggMin && c < 0) || (spec.Kind == AggMax && c > 0) {
					k.ext[si].setFrom(int(g), &b.Cols[spec.Col], p)
				}
			}
		}
	}
	// The group state holds its own copies of the values, so the input's
	// storage is no longer referenced and can recycle.
	b.Release(k.loc)
	return nil, nil
}

func (k *aggKernel) Flush() (*Batch, error) {
	if len(k.sigs) == 0 {
		return nil, nil
	}
	order := make([]int32, len(k.sigs))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return k.sigs[order[i]] < k.sigs[order[j]] })
	a := k.op
	cols := make([]Vector, len(a.schema))
	for gi := range a.groupCols {
		cols[gi] = k.keys[gi].gather(order)
	}
	for si, spec := range a.aggs {
		c := &cols[len(a.groupCols)+si]
		switch spec.Kind {
		case AggCount:
			c.Type, c.Ints = TypeInt, make([]int64, len(order))
			for i, g := range order {
				c.Ints[i] = k.count[g]
			}
		case AggSum, AggAvg:
			c.Type, c.Floats = TypeFloat, make([]float64, len(order))
			for i, g := range order {
				c.Floats[i] = k.sums[si][g]
				if spec.Kind == AggAvg {
					c.Floats[i] /= float64(k.count[g])
				}
			}
		default:
			*c = k.ext[si].gather(order)
		}
	}
	return &Batch{Schema: a.schema, Cols: cols, nrows: len(order)}, nil
}

// limitKernel passes through the first remaining rows of the stream — a
// zero-copy slice of each batch until the budget runs out.
type limitKernel struct {
	remaining int
	loc       *Local
}

func (k *limitKernel) Process(b *Batch) (*Batch, error) {
	if k.remaining <= 0 {
		b.Release(k.loc)
		return nil, nil
	}
	n := b.Len()
	if n <= k.remaining {
		k.remaining -= n
		return b, nil
	}
	// The slice shares b's column storage, so b itself is not released — it
	// leaks to the GC once at the limit boundary, which is always safe.
	out := b.SliceLocal(0, k.remaining, k.loc)
	k.remaining = 0
	return out, nil
}

func (k *limitKernel) Flush() (*Batch, error) { return nil, nil }
