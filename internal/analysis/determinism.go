package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// DeterminismAnalyzer enforces the reproduction's bit-identical-replay
// guarantee (PAPER.md §7, the serial-vs-parallel equivalence): every
// stochastic draw comes from a seeded internal/rng stream, no seed or
// trial outcome derives from the wall clock, and no user-visible output is
// ordered by a map walk.
//
// Two rules are per package. DT002 bans the math/rand import itself, which
// also catches seeded and type-only uses that no call-level rule sees, and
// DT004 bans minting an rng root in a Config.RngRootDeny package. The rest
// come from one interprocedural scan. A bottom-up summary records, for
// every module function, whether its return value derives from the wall
// clock, from math/rand, or from a map-iteration-ordered accumulation; a
// second pass reports each finding with its distance from the source:
//
//   - DT001 / DT005: a wall-clock read (time.Now/Since/Until) is DT001 at
//     0 hops; a call to a module function whose return value is
//     wall-clock-derived through any chain of calls is DT005. There is no
//     legitimate consumer of a clock-derived value in result-bearing code —
//     display-only clock use belongs inside a WallClockAllow function and
//     must not escape it — so the call itself is the violation.
//   - DT006: the same for values derived from unseeded math/rand (the
//     direct draw is covered by DT002). The seeded internal/rng package
//     (Config.RandAllow) is the sanctioned boundary: taint never
//     propagates out of an allowed package.
//   - DT003 / DT007: map-ordered data is legal to hold and legal to sort —
//     only emitting it unsorted is a defect — so both fire at the sink. An
//     output call inside a map range's body is DT003 at 0 hops; a value
//     whose ordering comes from a map iteration (a slice accumulated inside
//     a map range, possibly returned through several calls) reaching
//     output, formatting, or an obs metric without an intervening sort is
//     DT007.
//
// Package-level initializers are not call-graph nodes, so they keep their
// own walk for DT001 and DT004.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "no wall-clock, unseeded-rand, or map-ordered value reaches results, directly or through any call chain",
	Codes: []CodeDoc{
		{"DT001", "wall-clock read (time.Now/Since/Until) outside the duration-reporting allowlist"},
		{"DT002", "math/rand imported outside internal/rng; use seeded internal/rng streams"},
		{"DT003", "map iteration feeds output; iterate a sorted key slice instead"},
		{"DT004", "rng root minted (rng.New/rng.TrialStream) in a package that must receive its stream"},
		{"DT005", "call to a function returning a wall-clock-derived value (interprocedural)"},
		{"DT006", "call to a function returning an unseeded-rand-derived value (interprocedural)"},
		{"DT007", "map-iteration-ordered value reaches output or a metric without a sort (interprocedural)"},
	},
	Run: runDeterminism,
}

// wallClockFuncs are the time package entry points that read the clock.
var wallClockFuncs = map[string]bool{
	"time.Now":   true,
	"time.Since": true,
	"time.Until": true,
}

// rngRootFuncs name the internal/rng entry points that mint a fresh root
// stream from a bare seed (as opposed to deriving from an existing
// stream via Split).
var rngRootFuncs = map[string]bool{"New": true, "TrialStream": true}

// outputMethodNames are methods whose call means a value reaches an output
// stream or table.
var outputMethodNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"AddRow": true, "Fprint": true,
}

// taintKind indexes the three tracked taints.
type taintKind int

const (
	kClock taintKind = iota
	kRand
	kMapOrder
	nTaintKinds
)

var taintKindNames = [nTaintKinds]string{"wall-clock", "unseeded-rand", "map-iteration-order"}

// taintSet is the per-value lattice: one bit per taint kind.
type taintSet [nTaintKinds]bool

func (t taintSet) any() bool { return t[kClock] || t[kRand] || t[kMapOrder] }

// merge ORs o into t, reporting whether t changed.
func (t *taintSet) merge(o taintSet) bool {
	changed := false
	for k := range t {
		if o[k] && !t[k] {
			t[k] = true
			changed = true
		}
	}
	return changed
}

// taintSummary is one function's boundary fact: which taints its return
// values can carry, and (for diagnostics) the shortest chain explaining
// each.
type taintSummary struct {
	leaks taintSet
	via   [nTaintKinds]string
}

func runDeterminism(p *Pass) {
	for _, pkg := range p.Module.Pkgs {
		p.checkPackageDeterminism(pkg)
	}

	sums := map[*types.Func]*taintSummary{}
	p.Module.Graph.ForEachNode(func(n *CallNode) { sums[n.Fn] = &taintSummary{} })

	// Phase 1: bottom-up fixpoint over the leak summaries.
	p.Module.Fixpoint(func(n *CallNode) bool {
		scan := newTaintScan(p, n, sums)
		scan.run()
		sum := sums[n.Fn]
		changed := false
		for k := taintKind(0); k < nTaintKinds; k++ {
			if k == kRand && p.Config.RandAllow[n.Pkg.Path] {
				// The sanctioned rng boundary: draws are seeded by contract,
				// so rand taint stops here.
				continue
			}
			if scan.leaks[k] && !sum.leaks[k] {
				sum.leaks[k] = true
				sum.via[k] = scan.leakVia[k]
				changed = true
			}
		}
		return changed
	})

	// Phase 2: diagnostics, now that every summary is final.
	p.Module.Graph.ForEachNode(func(n *CallNode) {
		p.taintDiagnostics(n, sums)
	})
}

// checkPackageDeterminism covers what the call graph cannot: the
// math/rand import itself (DT002), and package-level initializers, which
// are not call-graph nodes (DT001, DT004).
func (p *Pass) checkPackageDeterminism(pkg *Package) {
	rngDenied := inScope(pkg.Path, p.Config.RngRootDeny)
	for _, file := range pkg.Files {
		// DT002: the import line itself is the violation — once math/rand
		// is in scope nothing distinguishes seeded from unseeded use.
		if !p.Config.RandAllow[pkg.Path] {
			for _, imp := range file.Imports {
				switch strings.Trim(imp.Path.Value, `"`) {
				case "math/rand", "math/rand/v2":
					p.Reportf(imp.Pos(), "DT002",
						"math/rand is unseeded or globally seeded (0 hops); draw from a seeded internal/rng stream")
				}
			}
		}
		for _, decl := range file.Decls {
			if _, isFunc := decl.(*ast.FuncDecl); isFunc {
				continue // bodies are call-graph nodes: taintDiagnostics
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					p.reportDirect(call, calleeFunc(pkg.Info, call), false, rngDenied)
				}
				return true
			})
		}
	}
}

// reportDirect reports the 0-hop findings at one call: a wall-clock read
// outside the allowlist (DT001) and, in a Config.RngRootDeny package, a
// minted rng root (DT004). A package on the deny list (e.g.
// internal/faults) must be handed its stream by the composition root,
// because a locally minted root can silently share or perturb the
// sequences other subsystems draw.
func (p *Pass) reportDirect(call *ast.CallExpr, fn *types.Func, clockAllowed, rngDenied bool) {
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if wallClockFuncs[fn.FullName()] && !clockAllowed {
		p.Reportf(call.Pos(), "DT001",
			"%s reads the wall clock (0 hops); trial outcomes must derive only from seeds (allowlist duration reporting in wblint's config)",
			fn.FullName())
	}
	if rngDenied && fn.Pkg().Path() == p.Config.ModulePath+"/internal/rng" && rngRootFuncs[fn.Name()] {
		p.Reportf(call.Pos(), "DT004",
			"rng.%s mints a root stream (0 hops) inside a package that must receive its stream from the caller (see Config.RngRootDeny)",
			fn.Name())
	}
}

// taintDiagnostics flags one function's violations: the 0-hop sources and
// the calls of leaking functions along its edges, then the sinks.
func (p *Pass) taintDiagnostics(n *CallNode, sums map[*types.Func]*taintSummary) {
	clockAllowed := p.Config.WallClockAllow[FuncKey(n.Fn)]
	randAllowed := p.Config.RandAllow[n.Pkg.Path]
	rngDenied := inScope(n.Pkg.Path, p.Config.RngRootDeny)

	// Every static edge is checked for DT001/DT004 (0 hops); edges into
	// leaking module functions are DT005/DT006. Dynamic edges (interface
	// dispatch, function values) are conservative: if any candidate leaks,
	// the call is flagged.
	type callKind struct {
		call *ast.CallExpr
		kind taintKind
	}
	reported := map[callKind]bool{}
	for _, edge := range n.Out {
		if !edge.Dynamic {
			p.reportDirect(edge.Call, edge.Callee, clockAllowed, rngDenied)
		}
		sum := sums[edge.Callee]
		if sum == nil || edge.Callee == n.Fn {
			continue
		}
		for k := taintKind(0); k < nTaintKinds; k++ {
			if !sum.leaks[k] {
				continue
			}
			var code string
			switch k {
			case kClock:
				if clockAllowed {
					continue
				}
				code = "DT005"
			case kRand:
				if randAllowed || (edge.Callee.Pkg() != nil && p.Config.RandAllow[edge.Callee.Pkg().Path()]) {
					continue
				}
				code = "DT006"
			default:
				continue // map order is flagged at the sink, not the call
			}
			ck := callKind{edge.Call, k}
			if reported[ck] {
				continue
			}
			reported[ck] = true
			p.Reportf(edge.Call.Pos(), code,
				"%s returns a %s-derived value (via %s); trial outcomes must derive only from seeds",
				FuncDisplay(edge.Callee, n.Pkg.Types), taintKindNames[k],
				chainString(FuncDisplay(edge.Callee, n.Pkg.Types), sum.via[k]))
		}
	}

	// DT003/DT007: map order reaching an output or metric sink.
	scan := newTaintScan(p, n, sums)
	scan.run()
	scan.reportSinks()
}

// chainString joins a call chain for a diagnostic, capped so deep chains
// stay readable.
func chainString(head, rest string) string {
	s := head
	if rest != "" {
		s += " → " + rest
	}
	if len(s) > 160 {
		s = s[:157] + "…"
	}
	return s
}

// taintScan is the per-function local dataflow: it tracks which variables
// hold tainted values, folds callee summaries in at call sites, and
// records what reaches the function's returns.
type taintScan struct {
	p    *Pass
	node *CallNode
	sums map[*types.Func]*taintSummary

	// calleesByCall resolves call expressions through the node's edges, so
	// interface dispatch and function-value calls use the graph's
	// conservative targets.
	calleesByCall map[*ast.CallExpr][]*types.Func

	vars   map[types.Object]taintSet
	varVia map[types.Object][nTaintKinds]string
	// sorted holds variables passed to a sort/slices ordering call: their
	// map-order taint is considered cleansed everywhere. The set only
	// grows, which keeps the sweep fixpoint monotone.
	sorted map[types.Object]bool

	leaks   taintSet
	leakVia [nTaintKinds]string
}

func newTaintScan(p *Pass, n *CallNode, sums map[*types.Func]*taintSummary) *taintScan {
	byCall := map[*ast.CallExpr][]*types.Func{}
	for _, e := range n.Out {
		byCall[e.Call] = append(byCall[e.Call], e.Callee)
	}
	return &taintScan{
		p: p, node: n, sums: sums,
		calleesByCall: byCall,
		vars:          map[types.Object]taintSet{},
		varVia:        map[types.Object][nTaintKinds]string{},
		sorted:        map[types.Object]bool{},
	}
}

// run iterates the body to a local fixpoint (taint only ever spreads, so
// the sweep count is bounded by the number of tracked variables).
func (s *taintScan) run() {
	for {
		if !s.sweep() {
			return
		}
	}
}

// sweep walks the body once, in source order, returning whether any
// variable or leak bit changed.
func (s *taintScan) sweep() bool {
	changed := false
	info := s.node.Pkg.Info
	ast.Inspect(s.node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if s.handleAssign(n) {
				changed = true
			}
		case *ast.RangeStmt:
			if s.handleRange(n) {
				changed = true
			}
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if s.handleSortCleanse(call) {
					changed = true
				}
			}
		case *ast.ReturnStmt:
			if s.handleReturn(n, info) {
				changed = true
			}
		}
		return true
	})
	return changed
}

// handleAssign merges the RHS taint of an assignment into its LHS
// variables. Error-typed variables are never tainted: an error value is
// not a trial outcome, and `v, err := f()` must not leak f's taint
// through the err return.
func (s *taintScan) handleAssign(assign *ast.AssignStmt) bool {
	changed := false
	if len(assign.Lhs) == len(assign.Rhs) {
		for i, rhs := range assign.Rhs {
			t, via := s.exprTaint(rhs)
			if assign.Tok != token.DEFINE && assign.Tok != token.ASSIGN {
				// Compound (+=, etc.): the LHS keeps its own taint too.
				lt, _ := s.exprTaint(assign.Lhs[i])
				t.merge(lt)
			}
			if t.any() && s.taintLHS(assign.Lhs[i], t, via) {
				changed = true
			}
		}
		return changed
	}
	// Multi-value: x, y := f() — every non-error LHS gets the call taint.
	if len(assign.Rhs) == 1 {
		t, via := s.exprTaint(assign.Rhs[0])
		if !t.any() {
			return false
		}
		for _, lhs := range assign.Lhs {
			if s.taintLHS(lhs, t, via) {
				changed = true
			}
		}
	}
	return changed
}

// taintLHS marks the variable behind an assignment target. Targets that
// are not local variables (receiver fields, globals) are out of the local
// scan's scope — poolhygiene owns those shapes.
func (s *taintScan) taintLHS(lhs ast.Expr, t taintSet, via [nTaintKinds]string) bool {
	root := rootIdent(lhs)
	if root == nil {
		return false
	}
	obj := objOf(s.node.Pkg.Info, root)
	v, ok := obj.(*types.Var)
	if !ok || isErrorType(v.Type()) {
		return false
	}
	cur := s.vars[obj]
	if !cur.merge(t) {
		return false
	}
	s.vars[obj] = cur
	cv := s.varVia[obj]
	for k := range via {
		if cur[k] && cv[k] == "" {
			cv[k] = via[k]
		}
	}
	s.varVia[obj] = cv
	return true
}

// handleRange covers the two range interactions:
//   - ranging over a map while appending to an outer slice makes that
//     slice map-iteration-ordered (the accumulation source);
//   - ranging over a tainted value taints the iteration variables, which
//     is how taint flows into loop bodies (and out again via appends).
func (s *taintScan) handleRange(rng *ast.RangeStmt) bool {
	changed := false
	info := s.node.Pkg.Info
	if isMapExpr(info, rng.X) && s.taintMapRangeAppends(rng) {
		changed = true
	}
	t, via := s.exprTaint(rng.X)
	if t.any() {
		for _, v := range []ast.Expr{rng.Key, rng.Value} {
			if v == nil {
				continue
			}
			if s.taintLHS(v, t, via) {
				changed = true
			}
		}
	}
	return changed
}

// taintMapRangeAppends marks slices appended to inside a map-range body as
// map-iteration-ordered.
func (s *taintScan) taintMapRangeAppends(rng *ast.RangeStmt) bool {
	changed := false
	pos := s.node.Pkg.Fset.Position(rng.Pos())
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltinCall(s.node.Pkg.Info, call, "append") {
				continue
			}
			var t taintSet
			t[kMapOrder] = true
			var via [nTaintKinds]string
			via[kMapOrder] = "map range at line " + strconv.Itoa(pos.Line)
			if s.taintLHS(assign.Lhs[i], t, via) {
				changed = true
			}
		}
		return true
	})
	return changed
}

// handleSortCleanse marks variables passed to a sort as cleansed: after
// sort.Strings(keys) (or any sort/slices call taking the value), the
// ordering no longer depends on the map walk. The mark is sticky — the
// cleansed set only grows — so the sweep fixpoint stays monotone.
func (s *taintScan) handleSortCleanse(call *ast.CallExpr) bool {
	fn := calleeFunc(s.node.Pkg.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
		return false
	}
	changed := false
	for _, arg := range call.Args {
		id := rootIdent(arg)
		if id == nil {
			continue
		}
		obj := objOf(s.node.Pkg.Info, id)
		if obj != nil && !s.sorted[obj] {
			s.sorted[obj] = true
			changed = true
		}
	}
	return changed
}

// handleReturn merges the taint of returned expressions into the leak
// summary. Naked returns leak the named results' taint.
func (s *taintScan) handleReturn(ret *ast.ReturnStmt, info *types.Info) bool {
	changed := false
	merge := func(t taintSet, via [nTaintKinds]string) {
		for k := taintKind(0); k < nTaintKinds; k++ {
			if t[k] && !s.leaks[k] {
				s.leaks[k] = true
				s.leakVia[k] = via[k]
				changed = true
			}
		}
	}
	if len(ret.Results) == 0 {
		if res := s.namedResults(); res != nil {
			for _, obj := range res {
				merge(s.vars[obj], s.varVia[obj])
			}
		}
		return changed
	}
	for _, r := range ret.Results {
		t, via := s.exprTaint(r)
		merge(t, via)
	}
	return changed
}

// namedResults returns the function's named result variables, or nil.
func (s *taintScan) namedResults() []types.Object {
	ft := s.node.Decl.Type
	if ft.Results == nil {
		return nil
	}
	var out []types.Object
	for _, field := range ft.Results.List {
		for _, name := range field.Names {
			if obj := s.node.Pkg.Info.Defs[name]; obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

// exprTaint computes the taint carried by an expression.
func (s *taintScan) exprTaint(e ast.Expr) (taintSet, [nTaintKinds]string) {
	var t taintSet
	var via [nTaintKinds]string
	if e == nil {
		return t, via
	}
	mergeIn := func(ot taintSet, ovia [nTaintKinds]string) {
		for k := range ot {
			if ot[k] && !t[k] {
				t[k] = true
				via[k] = ovia[k]
			}
		}
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := objOf(s.node.Pkg.Info, e)
		if cur, ok := s.vars[obj]; ok {
			v := s.varVia[obj]
			if s.sorted[obj] {
				cur[kMapOrder] = false
				v[kMapOrder] = ""
			}
			return cur, v
		}
	case *ast.CallExpr:
		return s.callTaint(e)
	case *ast.ParenExpr:
		return s.exprTaint(e.X)
	case *ast.UnaryExpr:
		return s.exprTaint(e.X)
	case *ast.StarExpr:
		return s.exprTaint(e.X)
	case *ast.BinaryExpr:
		mergeIn(s.exprTaint(e.X))
		mergeIn(s.exprTaint(e.Y))
	case *ast.SelectorExpr:
		// A field of a tainted value is tainted; a method value is not.
		if _, isFn := s.node.Pkg.Info.Uses[e.Sel].(*types.Func); !isFn {
			return s.exprTaint(e.X)
		}
	case *ast.IndexExpr:
		mergeIn(s.exprTaint(e.X))
		mergeIn(s.exprTaint(e.Index))
	case *ast.SliceExpr:
		return s.exprTaint(e.X)
	case *ast.TypeAssertExpr:
		return s.exprTaint(e.X)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			mergeIn(s.exprTaint(elt))
		}
	}
	return t, via
}

// callTaint folds a call expression: sources (time, math/rand), callee
// summaries, and argument/receiver propagation.
func (s *taintScan) callTaint(call *ast.CallExpr) (taintSet, [nTaintKinds]string) {
	var t taintSet
	var via [nTaintKinds]string
	info := s.node.Pkg.Info

	// Builtins: len/cap of a tainted container are order- and
	// value-independent; append and the rest propagate their arguments.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := info.Uses[id].(*types.Builtin); isB {
			switch id.Name {
			case "len", "cap", "make", "new":
				return t, via
			}
			for _, arg := range call.Args {
				at, avia := s.exprTaint(arg)
				for k := range at {
					if at[k] && !t[k] {
						t[k] = true
						via[k] = avia[k]
					}
				}
			}
			return t, via
		}
	}
	// Conversions propagate their operand.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return s.exprTaint(call.Args[0])
		}
		return t, via
	}

	fn := calleeFunc(info, call)
	if fn != nil && fn.Pkg() != nil {
		full := fn.FullName()
		if wallClockFuncs[full] {
			t[kClock] = true
			via[kClock] = full
		}
		switch fn.Pkg().Path() {
		case "math/rand", "math/rand/v2":
			t[kRand] = true
			via[kRand] = "math/rand." + fn.Name()
		}
	}
	// Callee summaries, through the graph's resolved targets (covers
	// interface dispatch and function values conservatively).
	for _, callee := range s.calleesByCall[call] {
		sum := s.sums[callee]
		if sum == nil {
			continue
		}
		for k := taintKind(0); k < nTaintKinds; k++ {
			if sum.leaks[k] && !t[k] {
				t[k] = true
				via[k] = chainString(FuncDisplay(callee, s.node.Pkg.Types), sum.via[k])
			}
		}
	}
	// Tainted arguments or receiver taint the result (order-sensitive
	// aggregation, formatting, arithmetic all preserve the dependence).
	mergeExpr := func(e ast.Expr) {
		at, avia := s.exprTaint(e)
		for k := range at {
			if at[k] && !t[k] {
				t[k] = true
				via[k] = avia[k]
			}
		}
	}
	for _, arg := range call.Args {
		mergeExpr(arg)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isFn := info.Uses[sel.Sel].(*types.Func); isFn {
			mergeExpr(sel.X)
		}
	}
	return t, via
}

// reportSinks walks the body's calls. An output call inside a map range's
// body is DT003 (0 hops), reported once at the range; an argument carrying
// map-order taint into any sink is DT007.
func (s *taintScan) reportSinks() {
	info := s.node.Pkg.Info
	var mapRanges []*ast.RangeStmt
	ast.Inspect(s.node.Decl.Body, func(n ast.Node) bool {
		if rng, ok := n.(*ast.RangeStmt); ok && isMapExpr(info, rng.X) {
			mapRanges = append(mapRanges, rng)
		}
		return true
	})
	rangeReported := map[*ast.RangeStmt]bool{}
	ast.Inspect(s.node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		if isOutputCall(fn) {
			for _, rng := range mapRanges {
				if !rangeReported[rng] && rng.Body.Pos() <= call.Pos() && call.End() <= rng.Body.End() {
					rangeReported[rng] = true
					s.p.Reportf(rng.Pos(), "DT003",
						"map iteration order is random and this loop emits output (%s, 0 hops); iterate sorted keys instead",
						fn.Name())
				}
			}
		} else if !s.p.isFormatOrMetric(fn) {
			return true
		}
		for _, arg := range call.Args {
			t, via := s.exprTaint(arg)
			if !t[kMapOrder] {
				continue
			}
			from := via[kMapOrder]
			if !strings.Contains(from, "→") {
				from += ", 0 hops"
			}
			s.p.Reportf(arg.Pos(), "DT007",
				"map-iteration-ordered value (from %s) reaches %s without a sort; sort it first",
				from, FuncDisplay(fn, s.node.Pkg.Types))
			break
		}
		return true
	})
}

// isOutputCall is the emit predicate: fmt printing and the conventional
// writer/table methods. It is DT003's whole sink set; DT007 adds
// isFormatOrMetric.
func isOutputCall(fn *types.Func) bool {
	full := fn.FullName()
	if strings.HasPrefix(full, "fmt.Print") || strings.HasPrefix(full, "fmt.Fprint") {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && outputMethodNames[fn.Name()]
}

// isFormatOrMetric reports the sinks only DT007 watches: fmt.Sprint*
// formatting and the obs Add/Set/Observe metrics. Formatting inside a map
// range is not output by itself (the result may be sorted before it is
// emitted), but a map-ordered value formatted into a string carries its
// order along.
func (p *Pass) isFormatOrMetric(fn *types.Func) bool {
	if strings.HasPrefix(fn.FullName(), "fmt.Sprint") {
		return true
	}
	if fn.Pkg() == nil || fn.Pkg().Path() != p.Config.ModulePath+"/internal/obs" {
		return false
	}
	switch fn.Name() {
	case "Add", "Set", "Observe":
		return true
	}
	return false
}

// isMapExpr reports whether e has map type.
func isMapExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// rootIdent returns the base identifier of an assignable expression
// (x, x.f, x[i], *x ...), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			return t
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
