package dsp

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	if got := Variance([]float64{5}); got != 0 {
		t.Errorf("Variance of singleton = %v", got)
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestVarianceNonNegativeProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // skip pathological inputs
			}
		}
		return Variance(xs) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanAbs(t *testing.T) {
	if got := MeanAbs([]float64{-1, 1, -3, 3}); got != 2 {
		t.Errorf("MeanAbs = %v, want 2", got)
	}
	if got := MeanAbs(nil); got != 0 {
		t.Errorf("MeanAbs(nil) = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 2})
	if min != -1 || max != 7 {
		t.Errorf("MinMax = (%v, %v), want (-1, 7)", min, max)
	}
	if min, max := MinMax(nil); min != 0 || max != 0 {
		t.Errorf("MinMax(nil) = (%v, %v), want (0, 0)", min, max)
	}
	if min, max := MinMax([]float64{}); min != 0 || max != 0 {
		t.Errorf("MinMax(empty) = (%v, %v), want (0, 0)", min, max)
	}
}

func TestArgMax(t *testing.T) {
	if got := ArgMax([]float64{1, 5, 5, 2}); got != 1 {
		t.Errorf("ArgMax = %d, want 1 (first of ties)", got)
	}
	if got := ArgMax(nil); got != -1 {
		t.Errorf("ArgMax(nil) = %d, want -1", got)
	}
}

func TestMeanAbsDev(t *testing.T) {
	if got := MeanAbsDev(nil); got != 0 {
		t.Errorf("MeanAbsDev(nil) = %v", got)
	}
	// Bimodal ±2, unbalanced 3:1 — estimate must stay near the lobe
	// separation half-width regardless of imbalance.
	xs := []float64{2, 2, 2, -2, 2, 2, 2, -2}
	got := MeanAbsDev(xs)
	if got < 1.0 || got > 2.5 {
		t.Errorf("MeanAbsDev of unbalanced bimodal = %v, want ~1.5", got)
	}
}

func TestMeanAbsDevOutlierLinearity(t *testing.T) {
	base := make([]float64, 100)
	for i := range base {
		base[i] = float64(i%2)*2 - 1
	}
	clean := MeanAbsDev(base)
	spiked := append([]float64{}, base...)
	spiked[0] = 100 // one enormous outlier among 100
	dirty := MeanAbsDev(spiked)
	if dirty > clean*3 {
		t.Errorf("MeanAbsDev blew up on one outlier: %v -> %v", clean, dirty)
	}
}
