package analysis

import (
	"go/ast"
	"go/types"
)

// StreamHygieneAnalyzer protects the streaming decode path's bounded-memory
// contract (DESIGN.md §10): types in the stream-stage packages
// (internal/uplink, internal/csi) carry per-push state, so a method that
// grows one of its receiver's slice fields with append accumulates without
// bound as the trace lengthens — exactly the regression the StreamDecoder
// refactor removed. Bounded growth is fine (ring buffers, arenas capped by
// the frame, containers trimmed with Series.TrimBefore), but it is a design
// decision the code cannot prove, so it must be written down: suppress with
// a //wblint:ignore SH001 directive naming what bounds the field.
//
// The check is deliberately narrow — `x.f = append(x.f, ...)` where x is
// the method's receiver — because that is the shape unbounded accumulation
// takes in practice; appends to locals and to result structs being built
// are bounded by their scope and stay silent.
var StreamHygieneAnalyzer = &Analyzer{
	Name: "streamhygiene",
	Doc:  "stream-stage receiver state must not grow without bound via append",
	Codes: []CodeDoc{
		{"SH001", "append accumulation on a receiver field in a stream-stage package without a documented bound"},
	},
	Run: runStreamHygiene,
}

func runStreamHygiene(p *Pass) {
	for _, pkg := range p.Module.Pkgs {
		if !inScope(pkg.Path, p.Config.StreamScope) {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || fn.Recv == nil || len(fn.Recv.List) != 1 {
					continue
				}
				if recv := recvVar(pkg.Info, fn); recv != nil {
					checkStreamFunc(p, pkg.Info, fn, recv)
				}
			}
		}
	}
}

// recvVar resolves the method's receiver variable, or nil when unnamed.
func recvVar(info *types.Info, fn *ast.FuncDecl) *types.Var {
	names := fn.Recv.List[0].Names
	if len(names) != 1 {
		return nil
	}
	v, _ := info.Defs[names[0]].(*types.Var)
	return v
}

// checkStreamFunc flags every `recv.f = append(recv.f, ...)` in the body.
func checkStreamFunc(p *Pass, info *types.Info, fn *ast.FuncDecl, recv *types.Var) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, lhs := range assign.Lhs {
			field := receiverField(info, lhs, recv)
			if field == nil {
				continue
			}
			call, ok := ast.Unparen(assign.Rhs[i]).(*ast.CallExpr)
			if !ok || !isBuiltinCall(info, call, "append") || len(call.Args) == 0 {
				continue
			}
			if receiverField(info, call.Args[0], recv) != field {
				continue // rebinding from elsewhere, not self-accumulation
			}
			p.Reportf(assign.Pos(), "SH001",
				"receiver field %s.%s grows via append on every call; stream-stage state must be bounded — trim it, cap it, or suppress with the bound written down",
				recv.Name(), field.Name())
		}
		return true
	})
}

// receiverField returns the field object when expr is `recv.f`, else nil.
func receiverField(info *types.Info, expr ast.Expr, recv *types.Var) *types.Var {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	base, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok || info.Uses[base] != types.Object(recv) {
		return nil
	}
	field, _ := info.Uses[sel.Sel].(*types.Var)
	if field == nil || !field.IsField() {
		return nil
	}
	return field
}
