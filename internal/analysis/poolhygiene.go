package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolHygieneAnalyzer polices the internal/dsp scratch-buffer pool that the
// decode hot path depends on (EXPERIMENTS.md: ~48x fewer bytes/op). A
// buffer obtained with dsp.GetSlice must go back with dsp.PutSlice on every
// control-flow path, and must not be retained, aliased, or used after the
// Put — a leaked buffer silently forfeits the reuse, while a retained one
// is a data race waiting for the next pool hit.
//
// Two checks share the rule set:
//
//   - the release checker (PH001/PH002) is intraprocedural and lexical:
//     each variable bound to a GetSlice must reach a PutSlice on every
//     path and not be used after it;
//   - the escape scan computes, bottom-up, which module functions can
//     return a pooled buffer (dsp.GetSlice directly, or any chain of calls
//     ending in one), then reports each way a pooled buffer can outlive
//     its frame, by its distance from the GetSlice. PH003 is the 0-hop
//     case: this function's own buffer is returned, stored beyond the
//     frame (field, global, element, dereference), packed into a composite
//     literal, sent on a channel, captured by a function literal that is
//     not immediately invoked, or copied into a second local (which hides
//     it from the release checker). A buffer obtained from a callee is
//     PH005 when returned onward and PH004 for every other escape.
//
// A local PutSlice does not excuse an escape: a buffer released here and
// also returned or stored reaches its holder already recycled. Ownership
// that deliberately crosses a function boundary (the StreamDecoder frame
// arena in internal/uplink, released on every exit path) is a real design
// decision and must be annotated with a //wblint:ignore directive explaining who
// releases the buffer.
var PoolHygieneAnalyzer = &Analyzer{
	Name: "poolhygiene",
	Doc:  "every dsp.GetSlice buffer is released on all paths and never outlives its frame, directly or through any call chain",
	Codes: []CodeDoc{
		{"PH001", "pooled buffer not released on some path (missing, non-deferred, or overwritten Put)"},
		{"PH002", "pooled buffer used after PutSlice returned it"},
		{"PH003", "pooled buffer escapes the function (returned, stored, aliased, or sent)"},
		{"PH004", "transitively-acquired pooled buffer stored or captured beyond the frame (interprocedural)"},
		{"PH005", "transitively-acquired pooled buffer returned onward (interprocedural)"},
	},
	Run: runPoolHygiene,
}

// poolSummary is one function's boundary fact: can a call to it hand the
// caller a live pooled buffer?
type poolSummary struct {
	returnsPooled bool
	via           string
}

func runPoolHygiene(p *Pass) {
	getName := p.Config.ModulePath + "/internal/dsp.GetSlice"
	putName := p.Config.ModulePath + "/internal/dsp.PutSlice"
	sums := map[*types.Func]*poolSummary{}
	p.Module.Graph.ForEachNode(func(n *CallNode) { sums[n.Fn] = &poolSummary{} })

	// Phase 1: fixpoint over returns-pooled summaries.
	p.Module.Fixpoint(func(n *CallNode) bool {
		scan := newPoolScan(p, n, sums, getName)
		scan.run()
		sum := sums[n.Fn]
		if scan.returnsPooled && !sum.returnsPooled {
			sum.returnsPooled = true
			sum.via = scan.returnVia
			return true
		}
		return false
	})

	// Phase 2: report escapes, then the release paths of every buffer that
	// stays in its frame.
	p.Module.Graph.ForEachNode(func(n *CallNode) {
		scan := newPoolScan(p, n, sums, getName)
		scan.run()
		scan.report()
		c := &poolCheck{pass: p, info: n.Pkg.Info, get: getName, put: putName, escaped: scan.escaped}
		c.checkFunc(n.Decl)
	})
}

// pooledVal records how a variable came to hold a pooled buffer.
type pooledVal struct {
	// transitive is true when the buffer came from a callee rather than a
	// GetSlice in this function.
	transitive bool
	via        string
}

// poolScan is the escape scan's per-function local pass.
type poolScan struct {
	p    *Pass
	node *CallNode
	sums map[*types.Func]*poolSummary

	calleesByCall map[*ast.CallExpr][]*types.Func
	getName       string

	vars map[types.Object]pooledVal
	// escaped collects the variables report found escaping: the release
	// checker leaves those to the escape diagnostic.
	escaped map[types.Object]bool

	returnsPooled bool
	returnVia     string
}

func newPoolScan(p *Pass, n *CallNode, sums map[*types.Func]*poolSummary, getName string) *poolScan {
	byCall := map[*ast.CallExpr][]*types.Func{}
	for _, e := range n.Out {
		byCall[e.Call] = append(byCall[e.Call], e.Callee)
	}
	return &poolScan{
		p: p, node: n, sums: sums,
		calleesByCall: byCall,
		getName:       getName,
		vars:          map[types.Object]pooledVal{},
		escaped:       map[types.Object]bool{},
	}
}

// run computes the function's pooled variables and return summary to a
// local fixpoint.
func (s *poolScan) run() {
	for s.sweep() {
	}
}

func (s *poolScan) sweep() bool {
	changed := false
	ast.Inspect(s.node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				v, ok := s.exprPooled(rhs)
				if !ok {
					continue
				}
				id, isIdent := ast.Unparen(n.Lhs[i]).(*ast.Ident)
				if !isIdent {
					continue // non-variable targets are handled in report()
				}
				obj := objOf(s.node.Pkg.Info, id)
				if _, isVar := obj.(*types.Var); !isVar {
					continue
				}
				if cur, seen := s.vars[obj]; !seen || (v.transitive && !cur.transitive) {
					s.vars[obj] = v
					changed = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				v, ok := s.exprPooled(r)
				if !ok {
					continue
				}
				if !s.returnsPooled {
					s.returnsPooled = true
					s.returnVia = v.via
					changed = true
				}
			}
		}
		return true
	})
	return changed
}

// exprPooled reports whether e evaluates to a pooled buffer, and how.
func (s *poolScan) exprPooled(e ast.Expr) (pooledVal, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, ok := s.vars[objOf(s.node.Pkg.Info, e)]
		return v, ok
	case *ast.SliceExpr:
		// buf[:n] shares the pooled backing array.
		return s.exprPooled(e.X)
	case *ast.CallExpr:
		return s.callPooled(e)
	}
	return pooledVal{}, false
}

// callPooled resolves whether a call yields a pooled buffer: GetSlice
// itself (direct), a module callee whose summary says so (transitive), or
// append on a pooled buffer (same backing array until it grows — still
// pool-owned memory either way).
func (s *poolScan) callPooled(call *ast.CallExpr) (pooledVal, bool) {
	info := s.node.Pkg.Info
	if isCallTo(info, call, s.getName) {
		return pooledVal{transitive: false, via: "dsp.GetSlice"}, true
	}
	if isBuiltinCall(info, call, "append") && len(call.Args) > 0 {
		return s.exprPooled(call.Args[0])
	}
	for _, callee := range s.calleesByCall[call] {
		sum := s.sums[callee]
		if sum != nil && sum.returnsPooled {
			via := chainString(FuncDisplay(callee, s.node.Pkg.Types), sum.via)
			return pooledVal{transitive: true, via: via}, true
		}
	}
	return pooledVal{}, false
}

// escape reports one escape of a settled scan: PH003 for this function's
// own buffer, code (the interprocedural PH004 or PH005) for one obtained
// from a callee.
func (s *poolScan) escape(pos token.Pos, obj types.Object, v pooledVal, code, what string) {
	from := v.via
	if !v.transitive {
		code, from = "PH003", v.via+", 0 hops"
	}
	if obj != nil {
		s.escaped[obj] = true
	}
	s.p.Reportf(pos, code, "pooled buffer (from %s) %s; copy it, release it here, or annotate who releases it", from, what)
}

// rootObj resolves the variable behind a pooled expression, or nil.
func (s *poolScan) rootObj(e ast.Expr) types.Object {
	if id := rootIdent(e); id != nil {
		return objOf(s.node.Pkg.Info, id)
	}
	return nil
}

// report emits the escapes of a settled scan.
func (s *poolScan) report() {
	ast.Inspect(s.node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if v, ok := s.exprPooled(r); ok {
					s.escape(r.Pos(), s.rootObj(r), v, "PH005", "is returned")
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				v, ok := s.exprPooled(rhs)
				switch {
				case !ok:
				case s.storesBeyondFrame(n.Lhs[i]):
					s.escape(n.Lhs[i].Pos(), s.rootObj(rhs), v, "PH004", "is stored beyond the acquiring frame")
				case !v.transitive && s.isAlias(n.Lhs[i], rhs):
					s.escape(rhs.Pos(), s.rootObj(rhs), v, "PH003", "is copied into a second local, hiding it from release tracking")
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				val := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if v, ok := s.exprPooled(val); ok {
					s.escape(val.Pos(), s.rootObj(val), v, "PH004", "is packed into a composite literal that outlives the frame")
				}
			}
		case *ast.SendStmt:
			if v, ok := s.exprPooled(n.Value); ok {
				s.escape(n.Value.Pos(), s.rootObj(n.Value), v, "PH004", "is sent on a channel; the receiver outlives the frame")
			}
		case *ast.FuncLit:
			if s.immediatelyInvoked(n) {
				return true
			}
			if obj, v := s.capturedPooled(n); obj != nil {
				s.escape(n.Pos(), obj, v, "PH004", "is captured as "+obj.Name()+" by a function literal that may outlive the frame")
			}
			return false // don't descend: inner uses are the capture, reported once
		}
		return true
	})
}

// isAlias reports whether lhs = rhs copies a pooled variable into a
// second local variable.
func (s *poolScan) isAlias(lhs, rhs ast.Expr) bool {
	l, lok := ast.Unparen(lhs).(*ast.Ident)
	r, rok := ast.Unparen(rhs).(*ast.Ident)
	if !lok || !rok {
		return false
	}
	lobj := objOf(s.node.Pkg.Info, l)
	_, isVar := lobj.(*types.Var)
	return isVar && lobj != objOf(s.node.Pkg.Info, r)
}

// storesBeyondFrame reports whether an assignment target outlives the
// function: a field, a dereference, an element of something, or a
// package-level variable. Plain local variables return false.
func (s *poolScan) storesBeyondFrame(lhs ast.Expr) bool {
	switch t := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := objOf(s.node.Pkg.Info, t)
		v, ok := obj.(*types.Var)
		if !ok {
			return false
		}
		// A package-level variable outlives every frame.
		return v.Parent() == s.node.Pkg.Types.Scope()
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}

// capturedPooled finds a pooled variable from the enclosing function that
// lit's body references, if any.
func (s *poolScan) capturedPooled(lit *ast.FuncLit) (types.Object, pooledVal) {
	var foundObj types.Object
	var foundVal pooledVal
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if foundObj != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := s.node.Pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		if v, ok := s.vars[obj]; ok {
			foundObj, foundVal = obj, v
		}
		return true
	})
	return foundObj, foundVal
}

// immediatelyInvoked reports whether lit is the Fun of a call expression
// (an IIFE): the closure cannot outlive the statement.
func (s *poolScan) immediatelyInvoked(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(s.node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if ok && ast.Unparen(call.Fun) == lit {
			found = true
		}
		return !found
	})
	return found
}

// poolCheck carries the per-function state of the release checker.
type poolCheck struct {
	pass     *Pass
	info     *types.Info
	get, put string
	escaped  map[types.Object]bool
	parents  map[ast.Node]ast.Node
}

// trackedBuf is one pool-owned variable inside a function.
type trackedBuf struct {
	obj     *types.Var
	getPos  token.Pos
	puts    []putSite
	uses    []token.Pos
	dropped token.Pos // overwritten without release
}

type putSite struct {
	pos      token.Pos
	end      token.Pos
	deferred bool
}

func (c *poolCheck) checkFunc(fn *ast.FuncDecl) {
	c.parents = map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			c.parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})

	// Pass 1: find GetSlice calls and bind them to variables. A buffer the
	// escape scan saw leave the frame is its finding, not a leak.
	bufs := map[*types.Var]*trackedBuf{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isCallTo(c.info, call, c.get) {
			return true
		}
		if v := c.boundVar(call); v != nil {
			// A second Get into the same variable keeps the first pos;
			// release rules apply to the variable as a whole.
			if bufs[v] == nil && !c.escaped[v] {
				bufs[v] = &trackedBuf{obj: v, getPos: call.Pos()}
			}
			return true
		}
		// Result not captured: it can never be released (a direct return
		// is the escape scan's PH003).
		if _, isRet := c.parents[call].(*ast.ReturnStmt); !isRet {
			c.pass.Reportf(call.Pos(), "PH001",
				"GetSlice result is not captured in a variable, so it can never be released (0 hops)")
		}
		return true
	})
	if len(bufs) == 0 {
		return
	}

	deferredPuts := c.deferredPutCalls(fn.Body)

	// Pass 2: classify every use of each tracked variable.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, _ := objOf(c.info, id).(*types.Var)
		if b := bufs[obj]; b != nil {
			c.classifyUse(b, id, deferredPuts)
		}
		return true
	})

	// Pass 3: returns that can leak a non-deferred Put (returns inside
	// nested function literals exit the literal, not this function).
	var returns []token.Pos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if ret, ok := n.(*ast.ReturnStmt); ok {
			returns = append(returns, ret.Pos())
		}
		return true
	})

	for _, b := range bufs {
		c.reportBuf(b, returns)
	}
}

// boundVar returns the variable a GetSlice call is assigned to, or nil.
func (c *poolCheck) boundVar(call *ast.CallExpr) *types.Var {
	switch parent := c.parents[call].(type) {
	case *ast.AssignStmt:
		for i, rhs := range parent.Rhs {
			if ast.Unparen(rhs) == call && i < len(parent.Lhs) {
				if id, ok := parent.Lhs[i].(*ast.Ident); ok {
					if v, ok := objOf(c.info, id).(*types.Var); ok {
						return v
					}
				}
			}
		}
	case *ast.ValueSpec:
		for i, rhs := range parent.Values {
			if ast.Unparen(rhs) == call && i < len(parent.Names) {
				if v, ok := objOf(c.info, parent.Names[i]).(*types.Var); ok {
					return v
				}
			}
		}
	}
	return nil
}

// isCallTo reports whether call statically invokes the fully-qualified
// function name (e.g. "repro/internal/dsp.GetSlice").
func isCallTo(info *types.Info, call *ast.CallExpr, full string) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.FullName() == full
}

// deferredPutCalls collects PutSlice calls that run via defer — either
// `defer dsp.PutSlice(x)` or a PutSlice anywhere inside a deferred
// function literal.
func (c *poolCheck) deferredPutCalls(body *ast.BlockStmt) map[*ast.CallExpr]bool {
	out := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		def, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if isCallTo(c.info, def.Call, c.put) {
			out[def.Call] = true
		}
		if lit, ok := ast.Unparen(def.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok && isCallTo(c.info, call, c.put) {
					out[call] = true
				}
				return true
			})
		}
		return true
	})
	return out
}

// classifyUse folds one identifier occurrence into the buffer's state:
// a release, a reassignment, or a plain use.
func (c *poolCheck) classifyUse(b *trackedBuf, id *ast.Ident, deferredPuts map[*ast.CallExpr]bool) {
	switch parent := c.parents[id].(type) {
	case *ast.CallExpr:
		if isCallTo(c.info, parent, c.put) && len(parent.Args) == 1 && ast.Unparen(parent.Args[0]) == id {
			b.puts = append(b.puts, putSite{
				pos:      parent.Pos(),
				end:      parent.End(),
				deferred: deferredPuts[parent],
			})
			return
		}
	case *ast.AssignStmt:
		if c.identInExprs(id, parent.Lhs) {
			// x = ... : reassignment. Fine when x round-trips through the
			// RHS (the Into pattern `x, err = f(x)` or a fresh Get);
			// otherwise the pooled buffer is dropped unreleased.
			if parent.Tok != token.DEFINE && !c.rhsMentions(parent, b.obj) && !c.rhsIsGet(parent) && !b.dropped.IsValid() {
				b.dropped = id.Pos()
			}
			return
		}
	}
	// Passing the buffer as an argument is the sanctioned way to share it
	// (the callee must not retain it — the escape scan's business).
	b.uses = append(b.uses, id.Pos())
}

func (c *poolCheck) identInExprs(id *ast.Ident, exprs []ast.Expr) bool {
	for _, e := range exprs {
		if ast.Unparen(e) == id {
			return true
		}
	}
	return false
}

// rhsMentions reports whether the assignment's RHS uses the variable
// (covering the `x, err = f(x, ...)` Into round-trip).
func (c *poolCheck) rhsMentions(assign *ast.AssignStmt, v *types.Var) bool {
	found := false
	for _, rhs := range assign.Rhs {
		ast.Inspect(rhs, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && c.info.Uses[id] == types.Object(v) {
				found = true
			}
			return !found
		})
	}
	return found
}

// rhsIsGet reports whether the assignment installs a fresh pooled buffer.
func (c *poolCheck) rhsIsGet(assign *ast.AssignStmt) bool {
	for _, rhs := range assign.Rhs {
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isCallTo(c.info, call, c.get) {
			return true
		}
	}
	return false
}

// reportBuf emits the release diagnostics for one tracked buffer.
func (c *poolCheck) reportBuf(b *trackedBuf, returns []token.Pos) {
	name := b.obj.Name()
	if b.dropped.IsValid() {
		c.pass.Reportf(b.dropped, "PH001",
			"pooled buffer %s is overwritten before PutSlice (0 hops); release it first", name)
	}
	if len(b.puts) == 0 {
		if !b.dropped.IsValid() {
			c.pass.Reportf(b.getPos, "PH001",
				"pooled buffer %s is taken from the pool but never released with PutSlice (0 hops)", name)
		}
		return
	}
	allDeferred := true
	var lastPlain putSite
	for _, put := range b.puts {
		if !put.deferred {
			allDeferred = false
			if put.end > lastPlain.end {
				lastPlain = put
			}
		}
	}
	if !allDeferred {
		// PH001: a return between the Get and the last plain Put skips it.
		for _, ret := range returns {
			if ret > b.getPos && ret < lastPlain.pos {
				c.pass.Reportf(ret, "PH001",
					"return path skips PutSlice(%s) (0 hops); release the buffer with defer", name)
			}
		}
		// PH002: any reference after the buffer went back to the pool.
		for _, use := range b.uses {
			if use > lastPlain.end {
				c.pass.Reportf(use, "PH002",
					"%s is used after PutSlice returned it to the pool (0 hops)", name)
			}
		}
	}
}
