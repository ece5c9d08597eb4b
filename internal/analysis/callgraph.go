package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the module-wide static call graph the interprocedural
// rules (determinism, hotpath) run on. The graph is assembled from every
// package handed to NewModule — for a `wblint ./...` run that is the whole
// module — and resolves three kinds of call sites:
//
//   - direct calls and method calls on concrete receivers, via types.Info
//     (exact);
//   - interface method calls, conservatively: an edge is added to every
//     module type's method that implements the called interface method, so
//     a property proven over the graph holds for whichever implementation
//     runs (it may also pull in implementations that never run — see
//     DESIGN.md §11 for the soundness trade-offs);
//   - calls of function-typed values (fields, variables, parameters),
//     conservatively: an edge is added to every module function whose
//     address is taken somewhere in the module and whose signature matches.
//
// Calls inside function literals are attributed to the enclosing declared
// function: for the invariants wblint protects (what a call chain can
// reach), a closure's body is part of its creator.

// Module is the view every analyzer operates on: every loaded package plus
// the call graph over their declared functions.
type Module struct {
	Fset   *token.FileSet
	Pkgs   []*Package
	Config *Config
	Graph  *CallGraph
}

// CallGraph is the static call graph over the module's declared functions.
type CallGraph struct {
	// Nodes maps every declared function (with a body) to its node.
	Nodes map[*types.Func]*CallNode
	// order lists nodes deterministically: package path, file, position.
	order []*CallNode
}

// CallNode is one declared function and its outgoing call edges.
type CallNode struct {
	Fn   *types.Func
	Pkg  *Package
	Decl *ast.FuncDecl
	// Out lists outgoing edges in source order. Edges point at module
	// functions and stdlib functions alike; only module callees have nodes.
	Out []CallEdge
}

// CallEdge is one call site inside a node's body.
type CallEdge struct {
	// Callee is the resolved target. For interface dispatch and
	// function-value calls there is one edge per candidate target.
	Callee *types.Func
	// Call is the call expression the edge came from.
	Call *ast.CallExpr
	// Dynamic marks edges resolved conservatively (interface dispatch or
	// function-value call) rather than statically.
	Dynamic bool
}

// NewModule builds the interprocedural view over pkgs. The packages are
// sorted by import path so node order — and therefore every derived
// iteration — is deterministic.
func NewModule(pkgs []*Package, cfg *Config) *Module {
	sorted := make([]*Package, len(pkgs))
	copy(sorted, pkgs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	m := &Module{Config: cfg, Pkgs: sorted}
	if len(sorted) > 0 {
		m.Fset = sorted[0].Fset
	}
	m.Graph = buildCallGraph(sorted, cfg.ModulePath)
	return m
}

// FuncKey names a function the way wblint's config keys it:
// "pkgpath.Func" for functions, "pkgpath.Recv.Func" for methods (pointer
// receivers use the element type name).
func FuncKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed {
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// FuncDisplay renders a function for diagnostics: "Recv.Name" for methods,
// "pkg.Name" for functions of other packages, "Name" otherwise.
func FuncDisplay(fn *types.Func, from *types.Package) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil && fn.Pkg() != from {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// The interprocedural rules follow a bottom-up summary discipline: a local
// pass computes, for each function, a small fact about its boundary
// behavior (does its return value carry wall-clock taint or map order?),
// and Fixpoint propagates those facts along the call graph until they
// stabilize — which handles recursion and mutual recursion without
// special cases. Diagnostics are only emitted in a second pass, once every
// summary is final, so a finding can name the whole chain it travelled
// ("deriveSeed → clockSeed → time.Now").

// Fixpoint applies step to every call-graph node, in deterministic order,
// repeatedly until a full sweep reports no change. step returns true when
// it changed the summary it maintains for the node. The iteration count is
// bounded by (lattice height × nodes); the summaries are small bit
// vectors, so a handful of sweeps settles the whole module.
func (m *Module) Fixpoint(step func(*CallNode) bool) {
	for {
		changed := false
		m.Graph.ForEachNode(func(n *CallNode) {
			if step(n) {
				changed = true
			}
		})
		if !changed {
			return
		}
	}
}

// NodeByKey finds a node by its FuncKey, or nil.
func (g *CallGraph) NodeByKey(key string) *CallNode {
	for _, n := range g.order {
		if FuncKey(n.Fn) == key {
			return n
		}
	}
	return nil
}

// ForEachNode visits every node in deterministic order.
func (g *CallGraph) ForEachNode(f func(*CallNode)) {
	for _, n := range g.order {
		f(n)
	}
}

// graphBuilder carries the intermediate state of call-graph construction.
type graphBuilder struct {
	graph      *CallGraph
	pkgs       []*Package
	modulePath string

	// namedTypes lists every named (non-interface) type declared in the
	// module, for conservative interface-dispatch resolution.
	namedTypes []*types.Named
	// addressTaken lists module functions referenced outside call position,
	// for conservative function-value call resolution.
	addressTaken []*types.Func
	// implCache memoizes interface-method resolution.
	implCache map[*types.Func][]*types.Func
}

func buildCallGraph(pkgs []*Package, modulePath string) *CallGraph {
	b := &graphBuilder{
		graph:      &CallGraph{Nodes: map[*types.Func]*CallNode{}},
		pkgs:       pkgs,
		modulePath: modulePath,
		implCache:  map[*types.Func][]*types.Func{},
	}
	// Pass 1: register every declared function and collect the module's
	// named types and address-taken functions.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				node := &CallNode{Fn: fn, Pkg: pkg, Decl: fd}
				b.graph.Nodes[fn] = node
				b.graph.order = append(b.graph.order, node)
			}
		}
		b.collectNamedTypes(pkg)
		b.collectAddressTaken(pkg)
	}
	// Pass 2: resolve the call sites of every body.
	for _, node := range b.graph.order {
		b.resolveCalls(node)
	}
	return b.graph
}

// collectNamedTypes gathers the package's named non-interface types.
func (b *graphBuilder) collectNamedTypes(pkg *Package) {
	scope := pkg.Types.Scope()
	names := scope.Names() // already sorted
	for _, name := range names {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		b.namedTypes = append(b.namedTypes, named)
	}
}

// collectAddressTaken records module functions referenced as values (not
// in call position): candidates for function-value call targets.
func (b *graphBuilder) collectAddressTaken(pkg *Package) {
	seen := map[*types.Func]bool{}
	for _, file := range pkg.Files {
		// Identifiers that are the resolved name of a call's Fun are in
		// call position; everything else referencing a *types.Func is an
		// address-taken use.
		callPos := map[*ast.Ident]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				callPos[fun] = true
			case *ast.SelectorExpr:
				callPos[fun.Sel] = true
			}
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || callPos[id] {
				return true
			}
			fn, ok := pkg.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || seen[fn] {
				return true
			}
			p := fn.Pkg().Path()
			if p != b.modulePath && !strings.HasPrefix(p, b.modulePath+"/") {
				return true
			}
			seen[fn] = true
			b.addressTaken = append(b.addressTaken, fn)
			return true
		})
	}
}

// resolveCalls populates one node's outgoing edges.
func (b *graphBuilder) resolveCalls(node *CallNode) {
	info := node.Pkg.Info
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(info, call); fn != nil {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				// Interface dispatch: edges to every module implementation.
				for _, impl := range b.implementations(fn) {
					node.Out = append(node.Out, CallEdge{Callee: impl, Call: call, Dynamic: true})
				}
				return true
			}
			node.Out = append(node.Out, CallEdge{Callee: fn, Call: call})
			return true
		}
		// Not a statically known function: a call of a function-typed
		// value, a conversion, or a builtin. Conversions and builtins have
		// no function type behind Fun.
		tv, ok := info.Types[call.Fun]
		if !ok || tv.IsType() {
			return true
		}
		sig, ok := tv.Type.Underlying().(*types.Signature)
		if !ok {
			return true
		}
		for _, cand := range b.addressTaken {
			if signatureMatches(sig, cand) {
				node.Out = append(node.Out, CallEdge{Callee: cand, Call: call, Dynamic: true})
			}
		}
		return true
	})
}

// implementations resolves an interface method to every module method that
// implements it, memoized.
func (b *graphBuilder) implementations(ifaceMethod *types.Func) []*types.Func {
	if impls, ok := b.implCache[ifaceMethod]; ok {
		return impls
	}
	var impls []*types.Func
	sig := ifaceMethod.Type().(*types.Signature)
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		b.implCache[ifaceMethod] = nil
		return nil
	}
	for _, named := range b.namedTypes {
		var recv types.Type = named
		if !types.Implements(recv, iface) {
			recv = types.NewPointer(named)
			if !types.Implements(recv, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, ifaceMethod.Pkg(), ifaceMethod.Name())
		if m, ok := obj.(*types.Func); ok {
			impls = append(impls, m)
		}
	}
	b.implCache[ifaceMethod] = impls
	return impls
}

// signatureMatches reports whether a function-value call with signature
// sig could target cand (comparing parameters and results; cand's
// receiver, if any, is bound in a method value and does not participate).
func signatureMatches(sig *types.Signature, cand *types.Func) bool {
	csig, ok := cand.Type().(*types.Signature)
	if !ok {
		return false
	}
	return sig.Params().Len() == csig.Params().Len() &&
		sig.Results().Len() == csig.Results().Len() &&
		tupleIdentical(sig.Params(), csig.Params()) &&
		tupleIdentical(sig.Results(), csig.Results())
}

func tupleIdentical(a, b *types.Tuple) bool {
	for i := 0; i < a.Len(); i++ {
		if !types.Identical(a.At(i).Type(), b.At(i).Type()) {
			return false
		}
	}
	return true
}

// Reach is the result of a reachability sweep: for every reached function,
// the root it was reached from and the caller it was first reached via.
type Reach struct {
	// Info maps each reached function to how it was first reached.
	Info map[*types.Func]ReachStep
	// funcs lists reached functions in breadth-first (deterministic) order.
	funcs []*types.Func
}

// ReachStep records how a function was first reached.
type ReachStep struct {
	Root *types.Func // the reachability root
	Via  *types.Func // immediate caller (nil for a root itself)
}

// ReachableFrom computes the set of module functions statically reachable
// from roots, breadth-first, following static and dynamic edges.
func (g *CallGraph) ReachableFrom(roots []*types.Func) *Reach {
	r := &Reach{Info: map[*types.Func]ReachStep{}}
	var queue []*types.Func
	for _, root := range roots {
		if _, ok := g.Nodes[root]; !ok {
			continue
		}
		if _, seen := r.Info[root]; seen {
			continue
		}
		r.Info[root] = ReachStep{Root: root}
		r.funcs = append(r.funcs, root)
		queue = append(queue, root)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		node := g.Nodes[fn]
		if node == nil {
			continue
		}
		for _, edge := range node.Out {
			if _, ok := g.Nodes[edge.Callee]; !ok {
				continue // stdlib or bodiless: no module node to descend into
			}
			if _, seen := r.Info[edge.Callee]; seen {
				continue
			}
			r.Info[edge.Callee] = ReachStep{Root: r.Info[fn].Root, Via: fn}
			r.funcs = append(r.funcs, edge.Callee)
			queue = append(queue, edge.Callee)
		}
	}
	return r
}

// ForEach visits reached functions in breadth-first order.
func (r *Reach) ForEach(f func(*types.Func, ReachStep)) {
	for _, fn := range r.funcs {
		f(fn, r.Info[fn])
	}
}

// PathTo renders the call chain from a function's root to the function,
// for diagnostics: "Push → decode → analyzeChannel".
func (r *Reach) PathTo(fn *types.Func, from *types.Package) string {
	var parts []string
	for cur := fn; ; {
		step, ok := r.Info[cur]
		if !ok {
			break
		}
		parts = append(parts, FuncDisplay(cur, from))
		if step.Via == nil {
			break
		}
		cur = step.Via
	}
	// Reverse: root first.
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, " → ")
}
