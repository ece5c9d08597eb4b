package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Suppression directives. A finding is silenced in source with
//
//	//wblint:ignore CODE reason...
//
// placed either at the end of the offending line or on its own line
// immediately above. A whole file can opt out of one code with
//
//	//wblint:file-ignore CODE reason...
//
// Every directive must carry a reason — a directive without one is itself
// reported (IG001), as is a directive that no longer matches any finding
// (IG002), so suppressions cannot silently rot.

// Diagnostic codes emitted by the directive checker itself.
const (
	codeMissingReason = "IG001"
	codeUnusedIgnore  = "IG002"
)

// ignoreDirective is one parsed //wblint:ignore or //wblint:file-ignore.
type ignoreDirective struct {
	pos      token.Position
	code     string
	reason   string
	fileWide bool
	used     bool
}

const (
	ignorePrefix     = "//wblint:ignore"
	fileIgnorePrefix = "//wblint:file-ignore"
)

// parseIgnores extracts every wblint directive from a file's comments.
func parseIgnores(fset *token.FileSet, file *ast.File) []*ignoreDirective {
	var dirs []*ignoreDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := c.Text
			var rest string
			var fileWide bool
			if r, ok := strings.CutPrefix(text, fileIgnorePrefix); ok {
				rest, fileWide = r, true
			} else if r, ok := strings.CutPrefix(text, ignorePrefix); ok {
				rest = r
			} else {
				continue
			}
			fields := strings.Fields(rest)
			d := &ignoreDirective{pos: fset.Position(c.Pos()), fileWide: fileWide}
			if len(fields) > 0 {
				d.code = fields[0]
			}
			if len(fields) > 1 {
				d.reason = strings.Join(fields[1:], " ")
			}
			dirs = append(dirs, d)
		}
	}
	return dirs
}

// applyIgnores filters diags through the suppression directives of pkgs,
// returning the surviving diagnostics plus any directive-hygiene findings
// (missing reason, unused directive). Directive-hygiene findings cannot be
// suppressed. Directive matching is filename-scoped, so one directive pool
// serves every package — and interprocedural findings, which can land in
// any package, are covered like any other.
func applyIgnores(pkgs []*Package, diags []Diagnostic) []Diagnostic {
	var dirs []*ignoreDirective
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			dirs = append(dirs, parseIgnores(pkg.Fset, f)...)
		}
	}
	var out []Diagnostic
	for _, d := range diags {
		if !suppressed(dirs, d) {
			out = append(out, d)
		}
	}
	for _, dir := range dirs {
		if dir.code == "" || dir.reason == "" {
			out = append(out, Diagnostic{
				Analyzer: "wblint",
				Code:     codeMissingReason,
				Pos:      dir.pos,
				Message:  "ignore directive needs a code and a written reason: //wblint:ignore CODE reason",
			})
			continue
		}
		if !dir.used {
			out = append(out, Diagnostic{
				Analyzer: "wblint",
				Code:     codeUnusedIgnore,
				Pos:      dir.pos,
				Message:  "ignore directive for " + dir.code + " matches no finding; delete it",
			})
		}
	}
	return out
}

// suppressed reports whether any directive covers d, marking matching
// directives used. A line directive covers its own line and the following
// line (so it can trail the offending statement or sit just above it).
func suppressed(dirs []*ignoreDirective, d Diagnostic) bool {
	hit := false
	for _, dir := range dirs {
		if dir.code != d.Code || dir.reason == "" || dir.pos.Filename != d.Pos.Filename {
			continue
		}
		if dir.fileWide || dir.pos.Line == d.Pos.Line || dir.pos.Line == d.Pos.Line-1 {
			dir.used = true
			hit = true
		}
	}
	return hit
}
