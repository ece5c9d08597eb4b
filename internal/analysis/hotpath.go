package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathAnalyzer turns the streaming decoder's 0 allocs/op benchmark
// (make bench-stream) from a number into line-level diagnostics. The
// benchmark can only say that the path allocated; it cannot say where, and
// it only covers the inputs the benchmark happens to push. This analyzer
// computes every module function statically reachable from the configured
// hot-path roots (Config.HotPathRoots — uplink.StreamDecoder.Push and the
// per-frame decode core — plus any function marked //wblint:hotpath-root)
// and enforces allocation discipline on all of them:
//
//   - HP001: a non-pointer concrete value passed to an interface-typed
//     parameter. The conversion boxes: one heap allocation per call.
//     Pointer conversions are exempt (the pointer rides in the interface
//     word), as are the error-path formatters in Config.HotPathBoxAllow.
//   - HP002: a function literal that escapes — passed to a callee or
//     assigned — which the compiler must heap-allocate together with its
//     captures. Immediately-invoked and directly-deferred literals are
//     exempt (they stay on the stack).
//   - HP003: a slice grown with x = append(x, ...) inside a loop with no
//     visible capacity establishment: no make(T, n, c), no x = x[:0]
//     reuse, and no composite-literal field initialized with a sized make.
//     Such appends reallocate O(log n) times per frame.
//
// Every diagnostic names the call chain from the root, so a violation two
// calls below Push reads as "Push → decode → binByTimestamp".
var HotPathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc:  "functions reachable from the streaming decode roots must not allocate per call",
	Codes: []CodeDoc{
		{"HP001", "interface boxing of a non-pointer value on the hot path (interprocedural)"},
		{"HP002", "escaping function literal on the hot path (interprocedural)"},
		{"HP003", "append growth in a loop without established capacity on the hot path (interprocedural)"},
	},
	Run: runHotPath,
}

// hotPathRootDirective marks a function as a hot-path root in source, for
// packages (and fixtures) outside the configured root list.
const hotPathRootDirective = "//wblint:hotpath-root"

func runHotPath(p *Pass) {
	roots := hotPathRoots(p)
	if len(roots) == 0 {
		return
	}
	reach := p.Module.Graph.ReachableFrom(roots)
	reach.ForEach(func(fn *types.Func, step ReachStep) {
		node := p.Module.Graph.Nodes[fn]
		if node == nil {
			return
		}
		chain := reach.PathTo(fn, node.Pkg.Types)
		hotScanFunc(p, node, chain)
	})
}

// hotPathRoots resolves the configured root keys plus in-source
// //wblint:hotpath-root directives.
func hotPathRoots(p *Pass) []*types.Func {
	var roots []*types.Func
	seen := map[*types.Func]bool{}
	add := func(fn *types.Func) {
		if fn != nil && !seen[fn] {
			seen[fn] = true
			roots = append(roots, fn)
		}
	}
	for _, key := range p.Config.HotPathRoots {
		if n := p.Module.Graph.NodeByKey(key); n != nil {
			add(n.Fn)
		}
	}
	p.Module.Graph.ForEachNode(func(n *CallNode) {
		if n.Decl.Doc == nil {
			return
		}
		for _, c := range n.Decl.Doc.List {
			if strings.HasPrefix(strings.TrimSpace(c.Text), hotPathRootDirective) {
				add(n.Fn)
			}
		}
	})
	return roots
}

// hotScanFunc checks one reached function's body.
func hotScanFunc(p *Pass, node *CallNode, chain string) {
	loops := loopRanges(node.Decl.Body)

	// Literals that are exempt from HP002: immediately invoked, or the
	// direct call of a defer/go statement (a directly-deferred closure is
	// stack-allocated by the compiler when the function is not looping —
	// and the deliberate defer-release idiom must stay expressible).
	exemptLit := map[*ast.FuncLit]bool{}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				exemptLit[lit] = true
			}
		}
		return true
	})

	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			hotCheckBoxing(p, node, n, chain)
		case *ast.FuncLit:
			if !exemptLit[n] {
				p.Reportf(n.Pos(), "HP002",
					"function literal escapes on the hot path (%s); hoist it or inline the logic", chain)
			}
		case *ast.AssignStmt:
			hotCheckAppend(p, node, n, loops, chain)
		}
		return true
	})
}

// hotCheckBoxing flags concrete non-pointer arguments passed to
// interface-typed parameters.
func hotCheckBoxing(p *Pass, node *CallNode, call *ast.CallExpr, chain string) {
	info := node.Pkg.Info
	fn := calleeFunc(info, call)
	if fn == nil || p.Config.HotPathBoxAllow[fn.FullName()] {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	for i, arg := range call.Args {
		var paramType types.Type
		switch {
		case i < params.Len()-1:
			paramType = params.At(i).Type()
		case sig.Variadic():
			if call.Ellipsis != token.NoPos {
				continue // s... passes the slice through; no boxing
			}
			if slice, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				paramType = slice.Elem()
			}
		case i < params.Len():
			paramType = params.At(i).Type()
		}
		if paramType == nil || !types.IsInterface(paramType) {
			continue
		}
		tv, ok := info.Types[arg]
		if !ok || tv.Type == nil {
			continue
		}
		at := tv.Type
		if types.IsInterface(at) {
			continue // interface-to-interface: no new box
		}
		if b, isBasic := at.(*types.Basic); isBasic && b.Kind() == types.UntypedNil {
			continue
		}
		if _, isPtr := at.Underlying().(*types.Pointer); isPtr {
			continue // pointers ride in the interface word
		}
		p.Reportf(arg.Pos(), "HP001",
			"%s value boxed into %s parameter of %s on the hot path (%s); one allocation per call",
			types.TypeString(at, types.RelativeTo(node.Pkg.Types)),
			types.TypeString(paramType, types.RelativeTo(node.Pkg.Types)),
			FuncDisplay(fn, node.Pkg.Types), chain)
	}
}

// hotCheckAppend flags x = append(x, ...) inside a loop when the function
// never visibly establishes capacity for x.
func hotCheckAppend(p *Pass, node *CallNode, assign *ast.AssignStmt, loops []posRange, chain string) {
	if len(assign.Lhs) != len(assign.Rhs) {
		return
	}
	for i, rhs := range assign.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isBuiltinCall(node.Pkg.Info, call, "append") || len(call.Args) == 0 {
			continue
		}
		path := exprPath(assign.Lhs[i])
		if path == "" || path != exprPath(call.Args[0]) {
			continue // not self-append; growth is bounded by the source
		}
		if !insideLoop(assign.Pos(), loops) {
			continue // a single append is amortized, not per-iteration
		}
		if capacityEstablished(node.Decl.Body, path) {
			continue
		}
		p.Reportf(assign.Pos(), "HP003",
			"%s grows by append in a loop with no established capacity on the hot path (%s); preallocate or reuse",
			path, chain)
	}
}

// posRange is a [start, end] source interval.
type posRange struct{ lo, hi token.Pos }

// loopRanges collects the body intervals of every for/range statement.
func loopRanges(body *ast.BlockStmt) []posRange {
	var out []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			out = append(out, posRange{n.Body.Pos(), n.Body.End()})
		case *ast.RangeStmt:
			out = append(out, posRange{n.Body.Pos(), n.Body.End()})
		}
		return true
	})
	return out
}

func insideLoop(pos token.Pos, loops []posRange) bool {
	for _, r := range loops {
		if r.lo <= pos && pos < r.hi {
			return true
		}
	}
	return false
}

// capacityEstablished reports whether the function visibly gives path a
// capacity: a three-argument make assigned to it, a x = x[:0] reuse, or a
// composite-literal field of the same name initialized with a sized make.
func capacityEstablished(body *ast.BlockStmt, path string) bool {
	field := path
	if idx := strings.LastIndex(path, "."); idx >= 0 {
		field = path[idx+1:]
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if exprPath(lhs) != path {
					continue
				}
				if isSizedMake(n.Rhs[i]) {
					found = true
				}
				if slice, ok := ast.Unparen(n.Rhs[i]).(*ast.SliceExpr); ok &&
					exprPath(slice.X) == path {
					found = true // x = x[:0] reuse keeps the old capacity
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if ok && key.Name == field && isSizedMake(kv.Value) {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// isSizedMake reports whether e is make(T, len, cap): an allocation whose
// capacity the author chose.
func isSizedMake(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 3 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "make"
}

// exprPath renders an assignable expression as a stable shape string:
// "x", "sd.ts", "bins[]". Index expressions normalize the index away so
// bins[j] and bins[k] compare equal. Unrepresentable shapes return "".
func exprPath(e ast.Expr) string {
	switch t := ast.Unparen(e).(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		base := exprPath(t.X)
		if base == "" {
			return ""
		}
		return base + "." + t.Sel.Name
	case *ast.IndexExpr:
		base := exprPath(t.X)
		if base == "" {
			return ""
		}
		return base + "[]"
	case *ast.StarExpr:
		return exprPath(t.X)
	}
	return ""
}
