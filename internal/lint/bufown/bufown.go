// Package bufown implements bftbufown, which enforces the release-callback
// contract of internal/transport's SendOwned/MulticastOwned: once a payload
// slice is handed over, the transport (or its release callback) owns it, and
// the sender must not read, append to, or re-seal it. Violations corrupt
// in-flight datagrams under pooled buffer recycling.
//
// Functions that take ownership declare it on the parameter by name:
//
//	// bftlint:consumes=payload
//	func (m *Mux) SendOwned(to NodeID, payload []byte, release func([]byte))
//
// (also legal on interface methods). After a call passing a plain local
// variable for a consumed parameter, any later use of that variable in the
// same function is reported. If the call sits inside a loop and the
// variable is declared outside it, every use inside the loop is reported —
// the next iteration runs "after" the handoff. Reassigning the variable as
// a whole (`buf = fresh()`) re-establishes ownership and is allowed;
// `buf = append(buf[:0], ...)` is not, because the right-hand side reads
// the surrendered buffer. Acknowledge intentional reuse with
// `bftlint:reuse-ok` (an alias for allow=bftbufown).
package bufown

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"repro/internal/lint/annot"
)

// Name is the analyzer name, used in `bftlint:allow=` suppressions
// (spelling `bftlint:reuse-ok` is the idiomatic acknowledgment).
const Name = "bftbufown"

// Analyzer is the bftbufown analysis.
var Analyzer = &analysis.Analyzer{
	Name:      Name,
	Doc:       "flag use of a payload slice after it was surrendered to a bftlint:consumes callee (SendOwned/MulticastOwned contract)",
	Run:       run,
	Requires:  []*analysis.Analyzer{inspect.Analyzer},
	FactTypes: []analysis.Fact{(*ConsumesFact)(nil)},
}

// ConsumesFact records which parameter indices of a function take
// ownership of their argument.
type ConsumesFact struct{ Indices []int }

func (*ConsumesFact) AFact() {}
func (f *ConsumesFact) String() string {
	return "consumes" // indices are positional; names live at the decl
}

type checker struct {
	pass     *analysis.Pass
	consumes map[*types.Func][]int
}

func run(pass *analysis.Pass) (interface{}, error) {
	c := &checker{pass: pass, consumes: make(map[*types.Func][]int)}
	c.collect()

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil {
			return
		}
		c.checkFunc(fd)
	})
	return nil, nil
}

// ---------------------------------------------------------------------------
// Annotation collection
// ---------------------------------------------------------------------------

func (c *checker) collect() {
	info := c.pass.TypesInfo
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if v, ok := annot.Value(annot.FuncDirectives(d), "consumes"); ok {
					c.declare(info.Defs[d.Name], d.Type, v, d.Pos())
				}
			case *ast.GenDecl:
				ast.Inspect(d, func(n ast.Node) bool {
					it, ok := n.(*ast.InterfaceType)
					if !ok {
						return true
					}
					for _, m := range it.Methods.List {
						v, ok := annot.Value(annot.FieldDirectives(m), "consumes")
						if !ok {
							continue
						}
						ft, ok := m.Type.(*ast.FuncType)
						if !ok {
							continue
						}
						for _, name := range m.Names {
							c.declare(info.Defs[name], ft, v, m.Pos())
						}
					}
					return true
				})
			}
		}
	}
}

// declare resolves comma-separated parameter names to indices and records
// (and exports) the ConsumesFact for fn.
func (c *checker) declare(obj types.Object, ft *ast.FuncType, names string, pos token.Pos) {
	fn, ok := obj.(*types.Func)
	if !ok || ft.Params == nil {
		return
	}
	want := make(map[string]bool)
	for _, n := range strings.Split(names, ",") {
		if n = strings.TrimSpace(n); n != "" {
			want[n] = true
		}
	}
	var idx []int
	i := 0
	for _, field := range ft.Params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if want[name.Name] {
				idx = append(idx, i)
				delete(want, name.Name)
			}
			i++
		}
	}
	for n := range want {
		c.pass.Reportf(pos, "bftlint: consumes names unknown parameter %q", n)
	}
	if len(idx) > 0 {
		c.consumes[fn] = idx
		c.pass.ExportObjectFact(fn, &ConsumesFact{Indices: idx})
	}
}

func (c *checker) consumedIndices(fn *types.Func) []int {
	if idx, ok := c.consumes[fn]; ok {
		return idx
	}
	if fn.Pkg() == nil || fn.Pkg() == c.pass.Pkg {
		return nil
	}
	var f ConsumesFact
	if c.pass.ImportObjectFact(fn, &f) {
		return f.Indices
	}
	return nil
}

func (c *checker) calleeOf(call *ast.CallExpr) *types.Func {
	if fn := typeutil.StaticCallee(c.pass.TypesInfo, call); fn != nil {
		return fn
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Per-function check
// ---------------------------------------------------------------------------

// handoff is one consuming call of a tracked local variable.
type handoff struct {
	obj    types.Object // the surrendered variable
	arg    *ast.Ident   // its appearance as the consumed argument
	end    token.Pos    // position after which plain uses are illegal
	loop   ast.Node     // innermost for/range enclosing the call, if the
	callee string       // variable is declared outside it (else nil)
	param  int
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	info := c.pass.TypesInfo
	var handoffs []handoff

	// Pass 1: find consuming calls with identifier arguments, tracking the
	// loop stack so the cross-iteration rule can apply.
	var loops []ast.Node
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				loops = append(loops, n)
				if f, ok := n.(*ast.ForStmt); ok {
					walk(f.Body)
				} else {
					walk(n.(*ast.RangeStmt).Body)
				}
				loops = loops[:len(loops)-1]
				return false
			case *ast.CallExpr:
				callee := c.calleeOf(n)
				if callee == nil {
					return true
				}
				for _, i := range c.consumedIndices(callee) {
					if i >= len(n.Args) {
						continue
					}
					id, ok := ast.Unparen(n.Args[i]).(*ast.Ident)
					if !ok {
						continue // fields/temporaries: out of scope
					}
					obj := info.Uses[id]
					if obj == nil {
						continue
					}
					if _, isVar := obj.(*types.Var); !isVar {
						continue
					}
					h := handoff{obj: obj, arg: id, end: n.End(), callee: callee.Name(), param: i}
					for j := len(loops) - 1; j >= 0; j-- {
						l := loops[j]
						if obj.Pos() < l.Pos() || obj.Pos() > l.End() {
							h.loop = l
							break
						}
					}
					handoffs = append(handoffs, h)
				}
				return true
			}
			return true
		})
	}
	walk(fd.Body)
	if len(handoffs) == 0 {
		return
	}

	// Pass 2: reassignments of the tracked variables (whole-variable LHS)
	// re-establish ownership.
	reassigns := make(map[types.Object][]token.Pos)
	pureLHS := make(map[*ast.Ident]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Uses[id]
			if obj == nil {
				obj = info.Defs[id]
			}
			if obj == nil {
				continue
			}
			pureLHS[id] = true
			reassigns[obj] = append(reassigns[obj], as.End())
		}
		return true
	})

	// Pass 3: judge every use of each surrendered variable.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		for _, h := range handoffs {
			if h.obj != obj || id == h.arg || pureLHS[id] {
				continue
			}
			if c.useViolates(id.Pos(), h, reassigns[obj]) {
				c.report(id, h)
				break
			}
		}
		return true
	})
}

// useViolates decides whether a use at pos conflicts with handoff h given
// the variable's whole-reassignment positions.
func (c *checker) useViolates(pos token.Pos, h handoff, reassigns []token.Pos) bool {
	if h.loop != nil && pos >= h.loop.Pos() && pos <= h.loop.End() {
		// Cross-iteration rule: the variable outlives the loop, so a use
		// anywhere in the loop body races the previous iteration's handoff
		// — unless a whole reassignment precedes the use within the loop.
		for _, r := range reassigns {
			if r >= h.loop.Pos() && r <= pos {
				return false
			}
		}
		return true
	}
	if pos <= h.end {
		return false
	}
	for _, r := range reassigns {
		if r > h.end && r <= pos {
			return false
		}
	}
	return true
}

func (c *checker) report(id *ast.Ident, h handoff) {
	if annot.InTestFile(c.pass, id.Pos()) || annot.Suppressed(c.pass, id.Pos(), Name) {
		return
	}
	where := "after"
	if h.loop != nil {
		where = "across loop iterations after"
	}
	c.pass.Reportf(id.Pos(),
		"%s is used %s being surrendered to %s (bftlint:consumes); the transport owns it once handed over (reallocate, or acknowledge with bftlint:reuse-ok)",
		id.Name, where, h.callee)
}
