// Package lint is the repo's determinism-lint suite (the analyzers behind
// cmd/sdmvet). Every PR defends one invariant — virtual-time results,
// traces, and metrics are bit-identical at any HostWorkers —
// and the dynamic determinism tests only cover the paths the drills
// exercise. These analyzers turn the invariant into a static property:
//
//   - wallclock:    wall-clock reads (time.Now/Since/Sleep/...) are banned
//     in simulation code; virtual time comes from simclock.
//   - randsource:   the shared math/rand globals and crypto/rand are
//     banned; randomness must flow through seeded internal/xrand sources.
//   - maporder:     map iteration that emits (writes, appends, metrics
//     marks, float folds) is banned unless the keys are sorted first.
//   - vtimecompare: time.Duration values folded into plain-int64
//     virtual-time arithmetic, and shared float accumulators inside
//     go-spawned closures (completion-order folds), are banned.
//
// The suite is built on stdlib go/ast + go/parser + go/types only — no
// golang.org/x/tools — so the module stays zero-dependency. Sanctioned
// violations (wall-clock profiling of the scale campaign, test watchdogs)
// are annotated in source:
//
//	//sdm:allow <analyzer> <reason>
//
// on the offending line or the line immediately above it. The reason is
// mandatory; a directive naming an unknown analyzer or missing its reason
// is itself reported (analyzer name "directive"), so the escape hatch
// cannot rot silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer report, rendered by the driver as
// "file:line: [analyzer] message".
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// Analyzer is one determinism check run over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All is the full suite in reporting order. Directive validation accepts
// exactly these names.
var All = []*Analyzer{Wallclock, Randsource, Maporder, Vtimecompare}

// Lookup returns the analyzer with the given name, or nil.
func Lookup(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Pass is one analyzer's view of one package: parsed syntax plus type
// information, and the sink findings are reported into.
type Pass struct {
	Pkg *Package

	analyzer *Analyzer
	allow    allowIndex
	findings *[]Finding
	seen     map[string]bool
}

// Fset returns the package's file set.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Files returns the package's parsed files.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// TypeOf returns the type of an expression, or nil when type information
// is unavailable for it.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Pkg.Info == nil {
		return nil
	}
	return p.Pkg.Info.TypeOf(e)
}

// ObjectOf resolves an identifier to its object (definition or use).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if p.Pkg.Info == nil {
		return nil
	}
	if o := p.Pkg.Info.Defs[id]; o != nil {
		return o
	}
	return p.Pkg.Info.Uses[id]
}

// Reportf records a finding at pos unless an //sdm:allow directive for
// this analyzer covers the line (same line or the line above).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.allow.covers(p.analyzer.Name, position) {
		return
	}
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%s:%d:%d:%s:%s", position.Filename, position.Line, position.Column, p.analyzer.Name, msg)
	if p.seen[key] {
		return
	}
	p.seen[key] = true
	*p.findings = append(*p.findings, Finding{Pos: position, Analyzer: p.analyzer.Name, Message: msg})
}

// allowIndex maps file -> line -> analyzer names sanctioned there.
type allowIndex map[string]map[int][]string

func (ai allowIndex) covers(analyzer string, pos token.Position) bool {
	lines := ai[pos.Filename]
	if lines == nil {
		return false
	}
	for _, l := range []int{pos.Line, pos.Line - 1} {
		for _, name := range lines[l] {
			if name == analyzer {
				return true
			}
		}
	}
	return false
}

// directivePrefix introduces a determinism-lint suppression comment.
const directivePrefix = "sdm:allow"

// scanDirectives indexes every //sdm:allow directive in the package and
// reports malformed ones (unknown analyzer, missing reason) as findings
// under the pseudo-analyzer "directive".
func scanDirectives(pkg *Package, findings *[]Finding) allowIndex {
	idx := make(allowIndex)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+directivePrefix)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) == 0 {
					*findings = append(*findings, Finding{Pos: pos, Analyzer: "directive",
						Message: "sdm:allow directive names no analyzer (grammar: //sdm:allow <analyzer> <reason>)"})
					continue
				}
				name := fields[0]
				if Lookup(name) == nil {
					*findings = append(*findings, Finding{Pos: pos, Analyzer: "directive",
						Message: fmt.Sprintf("sdm:allow names unknown analyzer %q (known: %s)", name, analyzerNames())})
					continue
				}
				if len(fields) < 2 {
					*findings = append(*findings, Finding{Pos: pos, Analyzer: "directive",
						Message: fmt.Sprintf("sdm:allow %s is missing its reason (grammar: //sdm:allow <analyzer> <reason>)", name)})
					continue
				}
				if idx[pos.Filename] == nil {
					idx[pos.Filename] = make(map[int][]string)
				}
				idx[pos.Filename][pos.Line] = append(idx[pos.Filename][pos.Line], name)
			}
		}
	}
	return idx
}

func analyzerNames() string {
	names := make([]string, len(All))
	for i, a := range All {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// Run executes the analyzers over every package and returns the findings
// sorted by (file, line, column, analyzer) — the driver's output order is
// itself deterministic.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		allow := scanDirectives(pkg, &findings)
		for _, a := range analyzers {
			pass := &Pass{
				Pkg:      pkg,
				analyzer: a,
				allow:    allow,
				findings: &findings,
				seen:     make(map[string]bool),
			}
			a.Run(pass)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := &findings[i], &findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return findings
}

// inspectWithStack walks root calling fn with every node and its ancestor
// stack (outermost first, not including n itself). Returning false prunes
// the subtree.
func inspectWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}

// enclosingFunc returns the innermost FuncDecl or FuncLit on the stack.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// baseIdent returns the leftmost identifier of an lvalue-ish expression
// (x, x.f, x.f.g → x). Index expressions are not unwrapped: per-slot
// writes are the sanctioned parallel-fold shape and are judged separately.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether the object's declaration lies inside the
// span of node n.
func declaredWithin(obj types.Object, n ast.Node) bool {
	return obj != nil && obj.Pos() != token.NoPos && obj.Pos() >= n.Pos() && obj.Pos() <= n.End()
}

// pkgNameOf resolves an expression to the imported package it names, or
// "" when it is not a package qualifier.
func (p *Pass) pkgNameOf(e ast.Expr) string {
	id, ok := e.(*ast.Ident)
	if !ok || p.Pkg.Info == nil {
		return ""
	}
	if pn, ok := p.Pkg.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// isFloat reports whether t's underlying type is a floating-point kind.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
