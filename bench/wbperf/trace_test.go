package main

import "testing"

// TestSelfTimeSubtractsChildCoverage checks the self-time arithmetic:
// overlapping children count once, a child running past its parent is
// clipped, and a grandchild only reduces its own parent.
func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "leaf", Start: 12, End: 18},
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	// root: 100 - [10,50) - [90,100) = 50; a: 20 - 6 = 14.
	want := []int64{50, 14, 30, 30, 6, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s self time %d, want %d", spans[i].Name, got[i], want[i])
		}
	}

	sum := summarize(spans)
	if len(sum) != 6 || sum[0].Name != "a" || sum[5].Name != "root" {
		t.Fatalf("summary not sorted by name: %+v", sum)
	}
	if root := sum[5]; root.Self != 50e-6 || root.Total != 100e-6 {
		t.Errorf("root summary self %v ms total %v ms, want 5e-05 and 1e-04", root.Self, root.Total)
	}
}

func TestTracerRecordsNothingWhenNil(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 1)
	tr.end(id)
	tr.fold("y", 1)
	if id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
}
