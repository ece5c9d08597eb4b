package dsp

import (
	"math"
	"testing"
)

func TestCorrelateBasic(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	p := []float64{1, 1}
	got := Correlate(xs, p)
	want := []float64{3, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("Correlate length = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Correlate[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCorrelateDegenerate(t *testing.T) {
	if got := Correlate([]float64{1}, []float64{1, 2}); got != nil {
		t.Errorf("pattern longer than series should return nil, got %v", got)
	}
	if got := Correlate([]float64{1, 2}, nil); got != nil {
		t.Errorf("empty pattern should return nil, got %v", got)
	}
}

func TestBitsToLevels(t *testing.T) {
	got := BitsToLevels([]bool{true, false, true})
	want := []float64{1, -1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("BitsToLevels[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestExpandLevels(t *testing.T) {
	got := ExpandLevels([]float64{1, -1}, 3)
	want := []float64{1, 1, 1, -1, -1, -1}
	if len(got) != len(want) {
		t.Fatalf("ExpandLevels length = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ExpandLevels[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if got := ExpandLevels([]float64{1}, 0); got != nil {
		t.Errorf("ExpandLevels with n=0 = %v, want nil", got)
	}
}

func TestBarkerAutocorrelationSidelobes(t *testing.T) {
	// The defining property of Barker codes: aperiodic autocorrelation
	// sidelobes have magnitude <= 1.
	for _, n := range []int{2, 3, 4, 5, 7, 11, 13} {
		code, err := Barker(n)
		if err != nil {
			t.Fatalf("Barker(%d): %v", n, err)
		}
		for shift := 1; shift < n; shift++ {
			var sum float64
			for i := 0; i+shift < n; i++ {
				sum += code[i] * code[i+shift]
			}
			if math.Abs(sum) > 1+1e-12 {
				t.Errorf("Barker(%d) sidelobe at shift %d = %v", n, shift, sum)
			}
		}
	}
}

func TestBarkerInvalidLength(t *testing.T) {
	if _, err := Barker(6); err == nil {
		t.Error("Barker(6) should error")
	}
}

func TestWalshPairOrthogonality(t *testing.T) {
	for _, n := range []int{2, 4, 6, 8, 20, 150} {
		c0, c1, err := WalshPair(n)
		if err != nil {
			t.Fatalf("WalshPair(%d): %v", n, err)
		}
		if len(c0) != n || len(c1) != n {
			t.Fatalf("WalshPair(%d) lengths = %d, %d", n, len(c0), len(c1))
		}
		if dot := DotProduct(c0, c1); dot != 0 {
			t.Errorf("WalshPair(%d) dot = %v, want 0", n, dot)
		}
		for i := 0; i < n; i++ {
			if math.Abs(c0[i]) != 1 || math.Abs(c1[i]) != 1 {
				t.Errorf("WalshPair(%d) has non-±1 chip at %d", n, i)
			}
		}
	}
}

func TestWalshPairInvalid(t *testing.T) {
	for _, n := range []int{0, -2, 3, 7} {
		if _, _, err := WalshPair(n); err == nil {
			t.Errorf("WalshPair(%d) should error", n)
		}
	}
}

func TestDotProductPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("DotProduct length mismatch should panic")
		}
	}()
	DotProduct([]float64{1}, []float64{1, 2})
}

func TestCodeBits(t *testing.T) {
	bits := CodeBits([]float64{1, -1, 1, 1})
	want := []bool{true, false, true, true}
	for i := range want {
		if bits[i] != want[i] {
			t.Errorf("CodeBits[%d] = %v, want %v", i, bits[i], want[i])
		}
	}
}

func TestBarkerBitsRoundTrip(t *testing.T) {
	bits := BarkerBits()
	levels := BitsToLevels(bits)
	for i := range levels {
		if levels[i] != Barker13[i] {
			t.Errorf("BarkerBits round trip mismatch at %d", i)
		}
	}
}
