// Package spanpair implements the ftlint analyzer that keeps the failure
// timeline honest: every tracer emission of a `failure` span kind must be
// answered by a `recovery` or `restart` emission — in the same function, in a
// function it calls, or in a handler documented with a
// `//lint:spanpair <handler>` directive that the analyzer verifies. It also
// forbids raw string literals where a span Kind is expected, so the timeline
// vocabulary stays the closed set defined in internal/obs.
//
// An execution recorder (a type named Recorder, like engine.Recorder) emits
// spans on its callers' behalf. Its failure method — a method that emits a
// failure span and resolves none — opens an episode for whoever calls it:
// each call is checked as a failure emission at the call site, and the
// method's own body is not. Its recovery and restart methods close episodes
// like any other resolving callee.
package spanpair

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"ftpde/internal/lint/analysis"
)

// Analyzer enforces failure/recovery span pairing and the Kind vocabulary.
var Analyzer = &analysis.Analyzer{
	Name: "spanpair",
	Doc: "tracer failure emissions, and calls to a Recorder's failure method, " +
		"must be paired with a recovery or restart emission (same function, " +
		"callee, or a verified //lint:spanpair handler), and span kinds must " +
		"be internal/obs constants, never string literals",
	Run: run,
}

const directive = "//lint:spanpair "

// recorderType names the execution recorder whose failure method opens
// episodes on its callers' behalf.
const recorderType = "Recorder"

// Kinds that open a failure episode and kinds that resolve one.
const failureKind = "failure"

var resolveKinds = map[string]bool{"recovery": true, "restart": true}

func run(pass *analysis.Pass) error {
	decls := pass.FuncDecls()

	// Pass 1 over each function: literal-kind findings, the set of span kinds
	// it emits directly, and the source positions of its failure emissions.
	type funcInfo struct {
		kinds    map[string]bool
		failures []ast.Node
	}
	infos := make(map[*ast.FuncDecl]*funcInfo)
	byName := make(map[string]*ast.FuncDecl)
	for _, fd := range decls {
		byName[fd.Name.Name] = fd
	}

	for obj, fd := range decls {
		if fd.Body == nil {
			continue
		}
		info := &funcInfo{kinds: make(map[string]bool)}
		infos[fd] = info
		opener := opensEpisode(pass, obj)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if f := pass.CalleeFunc(call); f != nil && opensEpisode(pass, f) {
				info.failures = append(info.failures, call)
			}
			for _, arg := range call.Args {
				tv, ok := pass.TypesInfo.Types[arg]
				if !ok || analysis.NamedTypeName(tv.Type) != "Kind" {
					continue
				}
				if lit := stringLiteralArg(pass, arg); lit != nil {
					pass.Reportf(lit.Pos(), "span kind is a string literal; use the Kind constants from internal/obs so the timeline vocabulary stays closed")
				}
				if tv.Value == nil || tv.Value.Kind() != constant.String {
					continue
				}
				kind := constant.StringVal(tv.Value)
				info.kinds[kind] = true
				if kind == failureKind && !opener {
					info.failures = append(info.failures, arg)
				}
			}
			return true
		})
	}

	// idResolves: does the function behind a summary FuncID emit
	// recovery/restart, transitively through its statically resolved callees?
	// This is the interprocedural arm of emitsResolve: the span facts travel
	// in summaries, so a recovery emitted two packages away still pairs a
	// failure here.
	const (
		stVisiting = 1
		stYes      = 2
		stNo       = 3
	)
	idState := make(map[analysis.FuncID]int)
	var idResolves func(id analysis.FuncID) bool
	idResolves = func(id analysis.FuncID) bool {
		switch idState[id] {
		case stVisiting, stNo:
			return false
		case stYes:
			return true
		}
		sum := pass.Summaries.ByID(id)
		if sum == nil {
			idState[id] = stNo
			return false
		}
		idState[id] = stVisiting
		yes := false
		for k := range sum.SpanKinds {
			if resolveKinds[k] {
				yes = true
				break
			}
		}
		for _, callee := range sum.Calls {
			if yes {
				break
			}
			yes = idResolves(callee)
		}
		if yes {
			idState[id] = stYes
		} else {
			idState[id] = stNo
		}
		return yes
	}

	// emitsResolve: does fd emit recovery/restart, transitively through
	// same-package calls or through the cross-package summary graph?
	memo := make(map[*ast.FuncDecl]bool)
	visiting := make(map[*ast.FuncDecl]bool)
	var emitsResolve func(fd *ast.FuncDecl) bool
	emitsResolve = func(fd *ast.FuncDecl) bool {
		if v, ok := memo[fd]; ok {
			return v
		}
		if visiting[fd] {
			return false
		}
		visiting[fd] = true
		defer func() { visiting[fd] = false }()
		info := infos[fd]
		if info != nil {
			for k := range info.kinds {
				if resolveKinds[k] {
					memo[fd] = true
					return true
				}
			}
		}
		if f, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
			if sum := pass.Summaries.Of(f); sum != nil {
				for _, callee := range sum.Calls {
					if idResolves(callee) {
						memo[fd] = true
						return true
					}
				}
			}
		}
		if fd.Body != nil {
			for _, callee := range pass.LocalCalls(fd.Body, decls) {
				if emitsResolve(callee) {
					memo[fd] = true
					return true
				}
			}
		}
		memo[fd] = false
		return false
	}

	// Pass 2: every function with failure emissions must resolve them.
	for fd, info := range infos {
		if len(info.failures) == 0 {
			continue
		}
		if emitsResolve(fd) {
			continue
		}
		handler, pos, hasDirective := spanpairDirective(pass, fd)
		if hasDirective {
			target, ok := byName[handler]
			if !ok {
				pass.Reportf(pos, "//lint:spanpair names %s, which is not a function in this package", handler)
				continue
			}
			if !emitsResolve(target) {
				pass.Reportf(pos, "//lint:spanpair handler %s never emits a recovery or restart span", handler)
			}
			continue
		}
		for _, f := range info.failures {
			pass.Reportf(f.Pos(), "failure span in %s is never resolved: emit a recovery or restart span here, in a callee, or document the handler with //lint:spanpair <func>", fd.Name.Name)
		}
	}
	return nil
}

// opensEpisode reports whether f is a recorder's failure method: a method on
// a type named Recorder whose body emits a failure span and resolves none.
func opensEpisode(pass *analysis.Pass, f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || analysis.NamedTypeName(sig.Recv().Type()) != recorderType {
		return false
	}
	sum := pass.Summaries.Of(f)
	if sum == nil || !sum.SpanKinds[failureKind] {
		return false
	}
	for k := range sum.SpanKinds {
		if resolveKinds[k] {
			return false
		}
	}
	return true
}

// stringLiteralArg unwraps arg to a raw string literal, looking through
// parens and a Kind("...")-style conversion.
func stringLiteralArg(pass *analysis.Pass, arg ast.Expr) *ast.BasicLit {
	e := ast.Unparen(arg)
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, found := pass.TypesInfo.Types[call.Fun]; found && tv.IsType() {
			e = ast.Unparen(call.Args[0])
		}
	}
	if lit, ok := e.(*ast.BasicLit); ok && lit.Kind.String() == "STRING" {
		return lit
	}
	return nil
}

// spanpairDirective looks for a //lint:spanpair comment in fd's doc or body
// and returns the named handler.
func spanpairDirective(pass *analysis.Pass, fd *ast.FuncDecl) (handler string, pos token.Pos, ok bool) {
	var comments []*ast.Comment
	if fd.Doc != nil {
		comments = append(comments, fd.Doc.List...)
	}
	for _, file := range pass.Files {
		if file.Pos() <= fd.Pos() && fd.End() <= file.End() {
			for _, cg := range file.Comments {
				if cg.Pos() >= fd.Pos() && cg.End() <= fd.End() {
					comments = append(comments, cg.List...)
				}
			}
		}
	}
	for _, c := range comments {
		rest, found := strings.CutPrefix(c.Text, directive)
		if !found {
			continue
		}
		name := strings.Fields(rest)
		if len(name) == 0 {
			continue
		}
		h := name[0]
		if i := strings.LastIndexByte(h, '.'); i >= 0 {
			h = h[i+1:]
		}
		return h, c.Pos(), true
	}
	return "", 0, false
}
