package main

import (
	"math"
	"testing"
)

// TestTailQuantileLeavesTenSamples pins the percentile rule: the reported
// tail leaves at least ten samples beyond it, is the highest whole
// percentile that does, is p99 from 1000 samples on, and falls back to
// the median below twenty samples.
func TestTailQuantileLeavesTenSamples(t *testing.T) {
	for n := 1; n <= 5000; n++ {
		q := tailQuantile(n)
		switch {
		case n >= 1000:
			if q != 0.99 {
				t.Fatalf("n=%d: tail quantile %v, want 0.99", n, q)
			}
		case n < 20:
			if q != 0.5 {
				t.Fatalf("n=%d: tail quantile %v, want the median", n, q)
			}
			continue
		}
		if beyond := n - 1 - nearestRank(n, q); beyond < 10 {
			t.Fatalf("n=%d: p%v leaves %d samples beyond it, want at least 10", n, 100*q, beyond)
		}
		if next := q + 0.01; q < 0.99 && n-1-nearestRank(n, next) >= 10 {
			t.Fatalf("n=%d: p%v is supported too, but the rule reported p%v", n, math.Round(100*next), 100*q)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 1.2, 5.5, 2.0, 4.4}, [3]float64{1.6, 3.1, 4.95}},
		{[]float64{7, 1}, [3]float64{-0.5, 4, 8.5}},
		{[]float64{1, 2, 4}, [3]float64{1, 2, 4}},
	} {
		q1, q2, q3 := quartiles(append([]float64(nil), tc.xs...))
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-tc.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.xs, q1, q2, q3, tc.want)
				break
			}
		}
	}
}

// TestHistQuantileWithinBucketError checks the histogram against exact
// nearest-rank quantiles of the same samples.
func TestHistQuantileWithinBucketError(t *testing.T) {
	var h hist
	var xs []float64
	for i := 0; i < 20000; i++ {
		v := int64(i*i%97_003 + i) // spread over five decades, not sorted
		h.add(v)
		xs = append(xs, float64(v))
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		want := sampleQuantile(xs, q)
		if got := h.quantile(q); math.Abs(got-want) > 0.032*want+1 {
			t.Errorf("q=%v: histogram says %v, samples say %v", q, got, want)
		}
	}
	var merged hist
	merged.merge(&h)
	if merged.quantile(0.5) != h.quantile(0.5) || merged.n != h.n {
		t.Errorf("merging into an empty histogram changed it")
	}
}
