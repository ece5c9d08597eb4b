package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestCatalogStableAndComplete pins the -codes contract: the catalog holds
// exactly the suite's diagnostic codes, sorted, with no duplicates — so a
// new analyzer that forgets its Codes entries (or a copy-pasted code)
// fails here by name.
func TestCatalogStableAndComplete(t *testing.T) {
	want := []string{
		"DT001", "DT002", "DT003", "DT004", "DT005", "DT006", "DT007",
		"FS001", "FS002",
		"HP001", "HP002", "HP003",
		"IG001", "IG002",
		"SH001",
		"UC001", "UC002", "UC003",
	}
	cat := analysis.Catalog()
	if len(cat) != len(want) {
		t.Fatalf("catalog has %d codes, want %d: %v", len(cat), len(want), cat)
	}
	for i, e := range cat {
		if e.Code != want[i] {
			t.Errorf("catalog[%d] = %s, want %s", i, e.Code, want[i])
		}
		if e.Summary == "" || e.Analyzer == "" {
			t.Errorf("catalog entry %s is missing its summary or analyzer", e.Code)
		}
	}
}

// TestPrintCodes checks the -codes rendering: one line per catalog entry,
// each naming the code, its analyzer, and its summary.
func TestPrintCodes(t *testing.T) {
	var buf strings.Builder
	printCodes(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	cat := analysis.Catalog()
	if len(lines) != len(cat) {
		t.Fatalf("-codes printed %d lines, want %d", len(lines), len(cat))
	}
	for i, e := range cat {
		for _, part := range []string{e.Code, e.Analyzer, e.Summary} {
			if !strings.Contains(lines[i], part) {
				t.Errorf("-codes line %d %q is missing %q", i, lines[i], part)
			}
		}
	}
}

// TestREADMEListsEveryCode holds the README's Static gates catalog against
// the binary: every code the suite can emit must be documented.
func TestREADMEListsEveryCode(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatalf("finding module root: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatalf("reading README: %v", err)
	}
	readme := string(data)
	for _, e := range analysis.Catalog() {
		if !strings.Contains(readme, e.Code) {
			t.Errorf("README.md does not document diagnostic code %s (%s: %s)",
				e.Code, e.Analyzer, e.Summary)
		}
	}
}
