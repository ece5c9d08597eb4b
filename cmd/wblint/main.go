// Command wblint runs the project's static-analysis suite (see
// internal/analysis): six analyzers — determinism, poolhygiene, floatsafe,
// unitcheck, streamhygiene, hotpath — each run once over every package in
// the load set and the call graph between them, so determinism, pool and
// hot-path findings follow values across function boundaries. It parses
// and typechecks packages itself with the standard library, so it works
// offline with no module dependencies.
//
// Usage:
//
//	wblint [-json] [-codes] [packages]
//
// Packages are directories or "dir/..." patterns; the default is "./...".
// Findings print as file:line:col: CODE message (analyzer). With -json the
// findings are emitted as a JSON array (stable order: file, line, column,
// code) so CI can diff runs. Exit status: 0 clean, 1 findings, 2 usage or
// load error.
//
// Suppress a finding in source with an explained directive:
//
//	//wblint:ignore PH003 the frame arena is released by StreamDecoder.release on every exit path
//
// or for a whole file with //wblint:file-ignore. Directives without a
// reason, and directives that no longer match a finding, are themselves
// reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	codes := flag.Bool("codes", false, "list every analyzer and diagnostic code, then exit")
	flag.Parse()

	if *codes {
		printCodes(os.Stdout)
		return
	}
	diags, err := run(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "wblint:", err)
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "wblint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// run resolves the package patterns and checks every matched package.
func run(patterns []string) ([]analysis.Diagnostic, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		return nil, err
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	seen := map[string]bool{}
	for _, pat := range patterns {
		expanded, err := expand(pat)
		if err != nil {
			return nil, err
		}
		for _, d := range expanded {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	return analysis.Check(loader, dirs, analysis.DefaultConfig())
}

// expand turns one pattern into package directories. "dir/..." walks; a
// plain path must be a package directory.
func expand(pat string) ([]string, error) {
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		if rest == "" || rest == "." {
			rest = "."
		}
		abs, err := filepath.Abs(rest)
		if err != nil {
			return nil, err
		}
		return analysis.WalkPackages(abs)
	}
	abs, err := filepath.Abs(pat)
	if err != nil {
		return nil, err
	}
	info, err := os.Stat(abs)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("%s is not a package directory", pat)
	}
	return []string{abs}, nil
}

// printCodes writes the complete diagnostic-code catalog — one line per
// code, sorted by code — straight from analysis.Catalog, so the listing
// can never drift from what the binary actually emits.
func printCodes(w io.Writer) {
	for _, e := range analysis.Catalog() {
		fmt.Fprintf(w, "%s  %-13s %s\n", e.Code, e.Analyzer, e.Summary)
	}
}
