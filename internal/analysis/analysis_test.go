package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// sharedLoader caches one loader (and its typechecked stdlib) across the
// package's tests. Tests in this package do not run in parallel.
var sharedLoader *Loader

func testLoader(t *testing.T) *Loader {
	t.Helper()
	if sharedLoader == nil {
		root, err := FindModuleRoot(".")
		if err != nil {
			t.Fatalf("finding module root: %v", err)
		}
		l, err := NewLoader(root)
		if err != nil {
			t.Fatalf("creating loader: %v", err)
		}
		sharedLoader = l
	}
	return sharedLoader
}

// loadFixture typechecks one testdata fixture package.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	l := testLoader(t)
	pkg, err := l.LoadDir(filepath.Join(l.ModuleDir(), "internal/analysis/testdata", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

var wantRE = regexp.MustCompile(`"([^"]*)"`)

// fixtureWants parses `// want "..." ["..."]...` comments, returning the
// expected diagnostic substrings keyed by file:line.
func fixtureWants(pkg *Package) map[string][]string {
	wants := map[string][]string{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				_, rest, ok := strings.Cut(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, m := range wantRE.FindAllStringSubmatch(rest, -1) {
					wants[key] = append(wants[key], m[1])
				}
			}
		}
	}
	return wants
}

// matchWants compares diagnostics against a fixture's want comments: every
// want must be produced, and every diagnostic must be wanted.
func matchWants(t *testing.T, fixture string, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := fixtureWants(pkg)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", fixture)
	}
	matched := map[string][]bool{}
	for key, list := range wants {
		matched[key] = make([]bool, len(list))
	}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		found := false
		for i, w := range wants[key] {
			if matched[key][i] {
				continue
			}
			if strings.Contains(d.Code+" "+d.Message, w) {
				matched[key][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %v", d)
		}
	}
	for key, list := range wants {
		for i, w := range list {
			if !matched[key][i] {
				t.Errorf("%s: want %q not reported", key, w)
			}
		}
	}
}

// fixtureModule typechecks one fixture as a one-package module (the
// fixture's call graph is self-contained).
func fixtureModule(t *testing.T, fixture string) (*Package, *Module) {
	t.Helper()
	pkg := loadFixture(t, fixture)
	return pkg, NewModule([]*Package{pkg}, DefaultConfig())
}

// checkFixture runs analyzers over a fixture and matches diagnostics
// against its want comments.
func checkFixture(t *testing.T, fixture string, analyzers ...*Analyzer) {
	t.Helper()
	pkg, m := fixtureModule(t, fixture)
	matchWants(t, fixture, pkg, RunAnalyzers(m, analyzers))
}

func TestDeterminismFixture(t *testing.T) {
	checkFixture(t, "determinism", DeterminismAnalyzer)
}

func TestFloatSafeFixture(t *testing.T) {
	checkFixture(t, "floatsafe", FloatSafeAnalyzer)
}

func TestUnitCheckFixture(t *testing.T) {
	checkFixture(t, "unitcheck", UnitCheckAnalyzer)
}

func TestStreamHygieneFixture(t *testing.T) {
	checkFixture(t, "streamhygiene", StreamHygieneAnalyzer)
}

func TestTaintFixture(t *testing.T) {
	checkFixture(t, "taint", DeterminismAnalyzer)
}

func TestHotPathFixture(t *testing.T) {
	checkFixture(t, "hotpath", HotPathAnalyzer)
}

// TestHopCounts pins how the interprocedural rules split by distance from the
// source: the direct case carries its 0-hop code and says "0 hops", the
// chained case carries the interprocedural code and names its call chain,
// and no line carries both.
func TestHopCounts(t *testing.T) {
	cases := []struct {
		fixture string
		direct  string // code of the 0-hop finding
		chained string // code of the multi-hop finding
		chain   string // a chain some chained finding must name
	}{
		{"taint", "DT001", "DT005", "deriveSeed → clockSeed → time.Now"},
		{"taint", "DT003", "DT007", "unsortedKeys → map range"},
		{"hotpath", "", "HP003", "process → stage1 → stage2"},
	}
	for _, tc := range cases {
		_, m := fixtureModule(t, tc.fixture)
		diags := RunAnalyzers(m, Analyzers())
		codesAt := map[int]map[string]bool{}
		var direct, chained bool
		for _, d := range diags {
			if codesAt[d.Pos.Line] == nil {
				codesAt[d.Pos.Line] = map[string]bool{}
			}
			codesAt[d.Pos.Line][d.Code] = true
			switch {
			case d.Code == tc.direct:
				direct = true
				if !strings.Contains(d.Message, "0 hops") {
					t.Errorf("%s: %s does not say 0 hops: %v", tc.fixture, d.Code, d)
				}
			case d.Code == tc.chained && strings.Contains(d.Message, tc.chain):
				chained = true
			}
		}
		if tc.direct != "" && !direct {
			t.Errorf("%s: no %s finding", tc.fixture, tc.direct)
		}
		if !chained {
			t.Errorf("%s: no %s naming the chain %q (got %v)", tc.fixture, tc.chained, tc.chain, diags)
		}
		for line, codes := range codesAt {
			if codes[tc.direct] && codes[tc.chained] {
				t.Errorf("%s:%d carries both %s and %s", tc.fixture, line, tc.direct, tc.chained)
			}
		}
	}
}

// TestBuildConstraints pins the loader's build-constraint handling: the
// tagged fixture's excluded files (unsatisfiable //go:build tag, foreign
// _GOOS suffix) contain deliberate typecheck errors, so this load only
// succeeds if both were filtered out.
func TestBuildConstraints(t *testing.T) {
	pkg := loadFixture(t, "tagged")
	if len(pkg.Files) != 1 {
		t.Fatalf("tagged fixture loaded %d files, want 1 (build-constrained files must be excluded)", len(pkg.Files))
	}
	name := filepath.Base(pkg.Fset.Position(pkg.Files[0].Pos()).Filename)
	if name != "tagged.go" {
		t.Errorf("tagged fixture loaded %s, want tagged.go", name)
	}
	if pkg.Types.Scope().Lookup("Ok") == nil {
		t.Error("tagged fixture is missing Ok — wrong file survived the filter")
	}
}

// TestAnalyzerDisabledWouldFail pins the property the acceptance criteria
// names: each fixture contains at least one finding, so disabling its
// analyzer (running none) leaves want comments unmatched and the fixture
// test red.
func TestAnalyzerDisabledWouldFail(t *testing.T) {
	for _, fixture := range []string{"determinism", "floatsafe", "unitcheck", "streamhygiene", "taint", "hotpath"} {
		pkg, m := fixtureModule(t, fixture)
		if n := len(fixtureWants(pkg)); n == 0 {
			t.Errorf("fixture %s has no want comments; a disabled analyzer would go unnoticed", fixture)
		}
		if diags := RunAnalyzers(m, nil); len(diags) != 0 {
			t.Errorf("fixture %s: no analyzers should mean no diagnostics", fixture)
		}
	}
}

// TestIgnoreDirectives exercises suppression end to end on the ignore
// fixture: explained directives suppress, bare ones earn IG001 without
// suppressing, stale ones earn IG002, and file-ignore covers a whole file.
func TestIgnoreDirectives(t *testing.T) {
	pkg, m := fixtureModule(t, "ignore")
	diags := applyIgnores([]*Package{pkg}, RunAnalyzers(m, []*Analyzer{DeterminismAnalyzer}))

	counts := map[string]int{}
	for _, d := range diags {
		counts[d.Code+" "+filepath.Base(d.Pos.Filename)]++
	}
	want := map[string]int{
		"IG001 ignore.go": 1, // bare directive
		"DT001 ignore.go": 1, // the finding the bare directive failed to suppress
		"IG002 ignore.go": 1, // stale directive
	}
	if len(counts) != len(want) {
		t.Errorf("diagnostics after suppression: got %v, want %v", counts, want)
	}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("diagnostics %s: got %d, want %d (all: %v)", k, counts[k], n, counts)
		}
	}
	for _, d := range diags {
		if filepath.Base(d.Pos.Filename) == "ignore_file.go" {
			t.Errorf("file-ignore failed to cover %v", d)
		}
	}
}

// TestSuppressionRange pins the directive's reach: its own line and the
// line below, not further.
func TestSuppressionRange(t *testing.T) {
	pkg, m := fixtureModule(t, "ignore")
	raw := RunAnalyzers(m, []*Analyzer{DeterminismAnalyzer})
	// The fixture's suppressed() function places the directive on the line
	// above its time.Now: that finding must be absent after filtering.
	var suppressedLine int
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, "documented exception with a written reason") {
					suppressedLine = pkg.Fset.Position(c.Pos()).Line
				}
			}
		}
	}
	if suppressedLine == 0 {
		t.Fatal("fixture directive not found")
	}
	for _, d := range applyIgnores([]*Package{pkg}, raw) {
		if d.Code == "DT001" && d.Pos.Line == suppressedLine+1 {
			t.Errorf("directive on line %d failed to suppress %v", suppressedLine, d)
		}
	}
}

// TestDiagnosticOrder pins the stable sort the -json contract relies on.
func TestDiagnosticOrder(t *testing.T) {
	_, m := fixtureModule(t, "determinism")
	diags := RunAnalyzers(m, Analyzers())
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.Pos.Filename > b.Pos.Filename ||
			(a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line) {
			t.Errorf("diagnostics out of order: %v before %v", a, b)
		}
	}
}
