package main

import (
	"bytes"
	"testing"
	"time"
)

// TestInputsDependOnlyOnSeed: the same seed encodes byte-identical
// sessions, a different seed different ones.
func TestInputsDependOnlyOnSeed(t *testing.T) {
	wire := func(seed int64) []byte {
		t.Helper()
		in, err := buildInputs(seed, rssiKind, 2, 0, time.Now, nil)
		if err != nil {
			t.Fatal(err)
		}
		var b []byte
		for _, c := range in.caps {
			b = append(append(append(b, c.hello...), c.lines...), c.want...)
		}
		return b
	}
	a, b, c := wire(1), wire(1), wire(2)
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Errorf("seed 1 encoded %d and %d bytes that differ", len(a), len(b))
	}
	if bytes.Equal(a, c) {
		t.Errorf("seeds 1 and 2 encoded identical inputs")
	}
}
