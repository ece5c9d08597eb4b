// Package analysis implements wblint, the project-specific static-analysis
// suite for the Wi-Fi Backscatter reproduction. It is built entirely on the
// standard library (go/ast, go/parser, go/types, go/token): the loader in
// load.go parses and typechecks packages itself, so the suite runs offline
// and adds no module dependencies.
//
// The suite exists because the reproduction's correctness claims rest on
// invariants the Go type system cannot see:
//
//   - determinism: seeded trials must be bit-identical across runs and
//     worker counts, so wall-clock time and unseeded randomness are banned
//     from everything that feeds a result, and map iteration must never
//     order user-visible output — at the read and through any call chain;
//   - floatsafe: DSP decisions ride on conditioned float series, where ==
//     on two computed values is almost always a latent bug;
//   - unitcheck: power/gain/frequency/distance quantities must move through
//     the internal/units API, not raw casts or bare literals;
//   - streamhygiene: stream-stage receiver state must not grow unbounded;
//   - hotpath: everything reachable from the streaming decode roots must
//     not allocate per call.
//
// Every analyzer runs once over a Module: the loaded packages plus their
// call graph (callgraph.go). Each reports diagnostics with stable codes
// (DT001, FS002, ...); a DT message names the call chain a finding
// travelled, or says "0 hops" when source and sink share a function.
// A finding can be suppressed with an in-source directive that must carry a
// written reason (see ignore.go); unexplained or unused directives are
// themselves diagnostics.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named analysis pass. Every analyzer runs once over the
// whole module: per-package checks iterate Module.Pkgs, and the
// interprocedural rules follow facts along Module.Graph.
type Analyzer struct {
	// Name identifies the analyzer in output and documentation.
	Name string
	// Doc is a one-line description of the invariant the analyzer protects.
	Doc string
	// Codes documents every diagnostic code the analyzer can emit.
	Codes []CodeDoc
	// Run inspects the module and reports diagnostics through the pass.
	Run func(*Pass)
}

// CodeDoc documents one diagnostic code.
type CodeDoc struct {
	Code    string
	Summary string
}

// Diagnostic is one finding, positioned in the source.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Code     string         `json:"code"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s (%s)",
		d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Code, d.Message, d.Analyzer)
}

// Pass carries the module through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Config   *Config
	Module   *Module

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, code, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Code:     code,
		Pos:      p.Module.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Config parameterizes the suite for a module. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// ModulePath is the module being analyzed (used to resolve the
	// internal/units and internal/rng packages).
	ModulePath string
	// WallClockAllow lists functions allowed to read the wall clock for
	// duration reporting, keyed "pkgpath.Func" or "pkgpath.Recv.Func".
	// Nothing a seed or trial outcome derives from may appear here.
	WallClockAllow map[string]bool
	// RandAllow lists package paths allowed to import math/rand; everything
	// else must draw from the seeded internal/rng streams.
	RandAllow map[string]bool
	// FloatScope lists package-path prefixes where floatsafe applies (the
	// DSP/decoder/eval code operating on measurement series).
	FloatScope []string
	// StreamScope lists package-path prefixes where streamhygiene applies
	// (the stream-stage packages whose per-push state must stay bounded).
	StreamScope []string
	// RngRootDeny lists package-path prefixes forbidden from minting rng
	// root streams (rng.New, rng.TrialStream). These packages must be handed a
	// *rng.Stream by the composition root — core derives the fault
	// injector's stream from TrialSeed(seed, salt) so it can never collide
	// with or perturb the draws other subsystems consume; a locally minted
	// root would reintroduce exactly that coupling.
	RngRootDeny []string
	// HotPathRoots lists the functions (keyed like WallClockAllow) whose
	// entire static call closure the hotpath analyzer holds to allocation
	// discipline. Functions can also opt in with //wblint:hotpath-root.
	HotPathRoots []string
	// HotPathBoxAllow lists fully-qualified functions whose interface
	// parameters may receive boxed values even on the hot path — the
	// error-path formatters, which only run when decode is already failing.
	HotPathBoxAllow map[string]bool
}

// DefaultConfig returns the repository's wblint policy.
func DefaultConfig() *Config {
	const mod = "repro"
	return &Config{
		ModulePath: mod,
		WallClockAllow: map[string]bool{
			// Duration reporting only: wbbench prints wall-clock speedups
			// and eval.Suite.Run prints per-experiment progress timing.
			// Seeds and trial outcomes never derive from these clocks.
			mod + "/cmd/wbbench.runCompare":  true,
			mod + "/internal/eval.Suite.Run": true,
		},
		RandAllow: map[string]bool{
			// internal/rng wraps math/rand behind seeded, splittable
			// streams; it is the only sanctioned entry point.
			mod + "/internal/rng": true,
		},
		FloatScope: []string{
			mod + "/internal/dsp",
			mod + "/internal/csi",
			mod + "/internal/uplink",
			mod + "/internal/downlink",
			mod + "/internal/eval",
			mod + "/internal/core",
			mod + "/internal/sim",
			mod + "/internal/tag",
			mod + "/internal/wifi",
			mod + "/internal/reader",
			mod + "/internal/inventory",
		},
		StreamScope: []string{
			// The streaming decode path: StreamDecoder state in uplink
			// and the measurement containers in csi.
			mod + "/internal/uplink",
			mod + "/internal/csi",
		},
		RngRootDeny: []string{
			// The fault injector receives its stream from core (see
			// core.Config.Faults); it must never mint its own root.
			mod + "/internal/faults",
		},
		HotPathRoots: []string{
			// The streaming decode entry point and the per-frame decode
			// core: everything they can reach must hold 0 allocs/push
			// (make bench-stream measures it; hotpath pinpoints it).
			mod + "/internal/uplink.StreamDecoder.Push",
			mod + "/internal/uplink.StreamDecoder.decode",
			// The serving layer's per-session worker: every measurement of
			// every concurrent session flows through it, so its reachable
			// set (stream push, slot recycling, response formatting) must
			// hold the same 0 allocs/measurement discipline.
			mod + "/internal/serve.Session.loop",
			// The resilience layer's per-bit and per-poll paths: the resume
			// checkpoint recorder sits between the worker and the transport
			// sink on every emitted bit, and the watchdog sweep runs on a
			// tight cadence against every live session.
			mod + "/internal/serve.resumeSink.EmitBits",
			mod + "/internal/serve.Server.watchdogSweep",
		},
		HotPathBoxAllow: map[string]bool{
			// Error construction only runs when a push is already being
			// rejected; boxing its operands is off the steady-state path.
			"fmt.Errorf": true,
		},
	}
}

// inScope reports whether a package path falls under one of the scope
// prefixes (FloatScope, StreamScope, RngRootDeny). Fixture packages (under
// a testdata directory) are always in scope so the analyzers can be
// exercised by tests.
func inScope(pkgPath string, scope []string) bool {
	if strings.Contains(pkgPath, "/testdata/") {
		return true
	}
	for _, p := range scope {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// Analyzers returns the suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		FloatSafeAnalyzer,
		UnitCheckAnalyzer,
		StreamHygieneAnalyzer,
		HotPathAnalyzer,
	}
}

// CatalogEntry is one row of the complete diagnostic-code catalog.
type CatalogEntry struct {
	Code     string
	Summary  string
	Analyzer string
}

// Catalog returns every diagnostic code the suite can emit — the analyzers
// and the directive checker — sorted by code.
// cmd/wblint prints it for -codes, and tests hold the README against it.
func Catalog() []CatalogEntry {
	var out []CatalogEntry
	for _, a := range Analyzers() {
		for _, c := range a.Codes {
			out = append(out, CatalogEntry{c.Code, c.Summary, a.Name})
		}
	}
	out = append(out,
		CatalogEntry{codeMissingReason, "ignore directive lacks a code or a written reason", "wblint"},
		CatalogEntry{codeUnusedIgnore, "ignore directive matches no finding", "wblint"},
	)
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}

// RunAnalyzers applies every analyzer in the list to m and returns the raw
// (unsuppressed) diagnostics in source order.
func RunAnalyzers(m *Module, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{Analyzer: a, Config: m.Config, Module: m, diags: &diags})
	}
	SortDiagnostics(diags)
	return diags
}

// Check loads pkg directories, builds the Module (call graph included) once,
// runs the suite over it, applies the suppression directives, and returns
// the surviving diagnostics in source order. It is the one-call entry point
// used by cmd/wblint and the repo-clean test.
func Check(l *Loader, dirs []string, cfg *Config) ([]Diagnostic, error) {
	var pkgs []*Package
	seen := map[string]bool{}
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		if seen[pkg.Path] {
			continue
		}
		seen[pkg.Path] = true
		pkgs = append(pkgs, pkg)
	}
	diags := applyIgnores(pkgs, RunAnalyzers(NewModule(pkgs, cfg), Analyzers()))
	SortDiagnostics(diags)
	return diags, nil
}

// SortDiagnostics orders diagnostics by file, line, column, then code, so
// output is stable and -json runs can be diffed.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Code < b.Code
	})
}

// calleeFunc resolves the called function object of a call expression, or
// nil when the callee is not a statically known *types.Func (interface
// method values still resolve; dynamic calls of function variables do not).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// objOf resolves an identifier to the object it defines or uses.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// isBuiltinCall reports whether call invokes the named builtin (append,
// len, ...), not a user function that shadows the name.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isB := info.Uses[id].(*types.Builtin)
	return isB
}
