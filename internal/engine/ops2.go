package engine

import "fmt"

// Limit keeps the first N rows of its (typically sorted) input, gathering
// into partition 0.
type Limit struct {
	base
	n int
}

// NewLimit creates a LIMIT n operator.
func NewLimit(name string, in Operator, n int) *Limit {
	l := &Limit{base: base{name: name, inputs: []Operator{in}, schema: in.OutSchema()}, n: n}
	if n < 0 {
		l.err = fmt.Errorf("negative limit %d", n)
	}
	return l
}

// Wide implements Operator.
func (l *Limit) Wide() bool { return true }

// ComputeBatch implements Operator via the shared limit kernel, gathering
// into partition 0.
func (l *Limit) ComputeBatch(part int, inputs []*BatchResult) (*Batch, error) {
	if err := l.Err(); err != nil {
		return nil, err
	}
	if part != 0 {
		return nil, nil
	}
	return kernelBatches(&limitKernel{remaining: l.n}, l.schema, inputs[0].Parts...)
}

// UnionAll concatenates two inputs partition-wise. Schemas must have the
// same column types.
type UnionAll struct {
	base
}

// NewUnionAll creates a UNION ALL operator.
func NewUnionAll(name string, left, right Operator) (*UnionAll, error) {
	ls, rs := left.OutSchema(), right.OutSchema()
	if len(ls) != len(rs) {
		return nil, fmt.Errorf("engine: union %s inputs have widths %d and %d", name, len(ls), len(rs))
	}
	for i := range ls {
		if ls[i].Type != rs[i].Type {
			return nil, fmt.Errorf("engine: union %s column %d is %s on the left, %s on the right", name, i, ls[i].Type, rs[i].Type)
		}
	}
	return &UnionAll{base: base{name: name, inputs: []Operator{left, right}, schema: ls}}, nil
}

// Wide implements Operator.
func (u *UnionAll) Wide() bool { return false }

// ComputeBatch implements Operator: a column-wise concatenation.
func (u *UnionAll) ComputeBatch(part int, inputs []*BatchResult) (*Batch, error) {
	left, right := inputs[0].Parts[part], inputs[1].Parts[part]
	// A single populated side passes through without copying (the batch is a
	// shared committed result either way).
	if right.Len() == 0 {
		return left, nil
	}
	if left.Len() == 0 {
		return right, nil
	}
	bb := NewBatchBuilder(u.schema)
	bb.Append(left)
	bb.Append(right)
	return bb.Finish(), nil
}
