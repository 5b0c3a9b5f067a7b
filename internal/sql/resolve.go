package sql

import (
	"fmt"

	"ftpde/internal/engine"
)

// boundCol is one column of a physical row layout, tagged with the table
// qualifier it came from.
type boundCol struct {
	qualifier string
	name      string
	typ       engine.ColType
}

// layout describes the physical row produced by an operator.
type layout []boundCol

// tableLayout builds the layout of a base-table scan.
func tableLayout(qualifier string, schema engine.Schema) layout {
	l := make(layout, len(schema))
	for i, c := range schema {
		l[i] = boundCol{qualifier: qualifier, name: c.Name, typ: c.Type}
	}
	return l
}

// concat returns probe ++ build, matching engine.HashJoin's output layout.
func (l layout) concat(other layout) layout {
	out := make(layout, 0, len(l)+len(other))
	out = append(out, l...)
	out = append(out, other...)
	return out
}

// schema converts the layout to an engine schema.
func (l layout) schema() engine.Schema {
	s := make(engine.Schema, len(l))
	for i, c := range l {
		s[i] = engine.Column{Name: c.name, Type: c.typ}
	}
	return s
}

// resolve finds the unique column matching the reference.
func (l layout) resolve(c *ColumnRef) (int, error) {
	found := -1
	for i, bc := range l {
		if bc.name != c.Column {
			continue
		}
		if c.Qualifier != "" && bc.qualifier != c.Qualifier {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sql: ambiguous column %s", c)
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("sql: unknown column %s", c)
	}
	return found, nil
}

// has reports whether the reference resolves uniquely in this layout.
func (l layout) has(c *ColumnRef) bool {
	_, err := l.resolve(c)
	return err == nil
}

// columnRefs collects every column reference in an expression.
func columnRefs(e ExprNode) []*ColumnRef {
	switch x := e.(type) {
	case *ColumnRef:
		return []*ColumnRef{x}
	case *BinaryExpr:
		return append(columnRefs(x.Left), columnRefs(x.Right)...)
	default:
		return nil
	}
}

// predicateQualifier returns the single table qualifier a predicate touches
// (resolving unqualified references against the whole-query layout), or ""
// when it spans several tables or only literals.
func predicateQualifier(p Predicate, full layout) string {
	refs := append(columnRefs(p.Left), columnRefs(p.Right)...)
	if len(refs) == 0 {
		return ""
	}
	q := ""
	for _, r := range refs {
		i, err := full.resolve(r)
		if err != nil {
			return ""
		}
		rq := full[i].qualifier
		if q == "" {
			q = rq
		} else if q != rq {
			return ""
		}
	}
	return q
}

// toEngineExpr converts an AST expression into an engine expression over the
// given layout.
func toEngineExpr(e ExprNode, l layout) (engine.Expr, error) {
	switch x := e.(type) {
	case *ColumnRef:
		i, err := l.resolve(x)
		if err != nil {
			return nil, err
		}
		return engine.Col(i), nil
	case *NumberLit:
		if x.IsInt {
			return engine.Const{V: int64(x.Value)}, nil
		}
		return engine.Const{V: x.Value}, nil
	case *StringLit:
		return engine.Const{V: x.Value}, nil
	case *BinaryExpr:
		left, err := toEngineExpr(x.Left, l)
		if err != nil {
			return nil, err
		}
		right, err := toEngineExpr(x.Right, l)
		if err != nil {
			return nil, err
		}
		ops := map[byte]engine.ArithOp{'+': engine.Add, '-': engine.Sub, '*': engine.Mul, '/': engine.Div}
		return engine.Arith{Op: ops[x.Op], L: left, R: right}, nil
	default:
		return nil, fmt.Errorf("sql: unsupported expression %T", e)
	}
}

// toEnginePredicate converts a predicate into an engine boolean expression.
func toEnginePredicate(p Predicate, l layout) (engine.Expr, error) {
	left, err := toEngineExpr(p.Left, l)
	if err != nil {
		return nil, err
	}
	right, err := toEngineExpr(p.Right, l)
	if err != nil {
		return nil, err
	}
	ops := map[string]engine.CmpOp{
		"=": engine.EQ, "<>": engine.NE, "!=": engine.NE,
		"<": engine.LT, "<=": engine.LE, ">": engine.GT, ">=": engine.GE,
	}
	op, ok := ops[p.Op]
	if !ok {
		return nil, fmt.Errorf("sql: unsupported operator %q", p.Op)
	}
	return engine.Cmp{Op: op, L: left, R: right}, nil
}
