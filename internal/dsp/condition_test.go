package dsp

import (
	"math"
	"testing"
	"testing/quick"
)

// movingAverage is the centered moving average the detrend kernel
// subtracts: xs minus the residual of its plain (amp 0) pass.
func movingAverage(xs []float64, window int) []float64 {
	ma := make([]float64, len(xs))
	detrend(ma, xs, make([]float64, len(xs)+1), window, 0)
	for i, x := range xs {
		ma[i] = x - ma[i]
	}
	return ma
}

func TestMovingAverageConstantSeries(t *testing.T) {
	xs := []float64{5, 5, 5, 5, 5}
	got := movingAverage(xs, 3)
	for i, v := range got {
		if v != 5 {
			t.Errorf("MovingAverage of constant series at %d = %v, want 5", i, v)
		}
	}
}

func TestMovingAverageWindowOne(t *testing.T) {
	xs := []float64{1, 2, 3}
	for _, window := range []int{-1, 0, 1} {
		got := movingAverage(xs, window)
		for i := range xs {
			if got[i] != xs[i] {
				t.Errorf("window %d should average each sample alone, got %v", window, got)
			}
		}
	}
}

func TestMovingAverageCentered(t *testing.T) {
	xs := []float64{0, 0, 9, 0, 0}
	got := movingAverage(xs, 3)
	want := []float64{0, 3, 3, 3, 0}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("MovingAverage[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestMovingAverageMatchesWindowSum holds the kernel's prefix-sum moving
// average to its definition, a plain sum over the centered window that
// shrinks to the available samples near the edges.
func TestMovingAverageMatchesWindowSum(t *testing.T) {
	f := func(raw []float64, wRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		// Clamp to a physical range: the prefix sums and the plain sums
		// legitimately diverge near float64 overflow, which no CSI
		// amplitude approaches.
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = 0
			} else {
				raw[i] = math.Mod(v, 1e6)
			}
		}
		window := int(wRaw)%(len(raw)+2) + 1
		got := movingAverage(raw, window)
		half := window / 2
		for i := range raw {
			lo, hi := max(i-half, 0), min(i+half+1, len(raw))
			var sum float64
			for _, x := range raw[lo:hi] {
				sum += x
			}
			want := sum / float64(hi-lo)
			if math.Abs(got[i]-want) > 1e-9*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRemoveTrendKillsSlowDrift(t *testing.T) {
	// A slow linear drift with a fast ±1 square wave on top: detrending
	// should leave approximately the square wave.
	n := 400
	xs := make([]float64, n)
	for i := range xs {
		drift := 0.001 * float64(i)
		sq := 1.0
		if (i/4)%2 == 1 {
			sq = -1
		}
		xs[i] = 10 + drift + sq
	}
	resid := make([]float64, n)
	detrend(resid, xs, make([]float64, n+1), 80, 0)
	// Interior residual mean should be ~0 and magnitude ~1.
	inner := resid[50 : n-50]
	if m := Mean(inner); math.Abs(m) > 0.05 {
		t.Errorf("residual mean = %v, want ~0", m)
	}
	if ma := MeanAbs(inner); math.Abs(ma-1) > 0.1 {
		t.Errorf("residual mean abs = %v, want ~1", ma)
	}
}

func TestNormalizeMapsLevels(t *testing.T) {
	xs := []float64{0.2, -0.2, 0.2, -0.2}
	got := Normalize(xs)
	want := []float64{1, -1, 1, -1}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("Normalize[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestNormalizeZeroSeries(t *testing.T) {
	got := Normalize([]float64{0, 0, 0})
	for _, v := range got {
		if v != 0 {
			t.Errorf("Normalize of zeros = %v", got)
		}
	}
}

func TestNormalizeUnitMeanAbsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e50 {
				xs = append(xs, x)
			}
		}
		out := Normalize(xs)
		if MeanAbs(xs) == 0 {
			return true
		}
		return almostEqual(MeanAbs(out), 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConditionSquareWave(t *testing.T) {
	// Square wave riding on a big offset: Condition should recover ±1.
	n := 200
	xs := make([]float64, n)
	for i := range xs {
		v := 100.0
		if (i/5)%2 == 0 {
			v += 0.3
		} else {
			v -= 0.3
		}
		xs[i] = v
	}
	out := Condition(xs, 40)
	// Check interior samples are near ±1 with the right sign.
	errs := 0
	for i := 30; i < n-30; i++ {
		want := 1.0
		if (i/5)%2 == 1 {
			want = -1
		}
		if math.Signbit(out[i]) != math.Signbit(want) {
			errs++
		}
	}
	if errs > 3 {
		t.Errorf("Condition misrecovered %d interior samples", errs)
	}
}

func TestMovingAverageLengthProperty(t *testing.T) {
	f := func(xs []float64, w uint8) bool {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
		}
		return len(movingAverage(xs, int(w))) == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConditionTwoPassUnbalancedRuns(t *testing.T) {
	// A payload with long same-bit runs: the plain moving average
	// crushes runs toward zero; the decision-directed pass must keep
	// them near ±1.
	n := 400
	xs := make([]float64, n)
	level := func(i int) float64 {
		// 10-sample bits; bits 12..20 are a long run of ones.
		bit := (i / 10) % 40
		if bit >= 12 && bit <= 20 {
			return 1
		}
		if bit%2 == 0 {
			return 1
		}
		return 0
	}
	for i := range xs {
		xs[i] = 10 + 0.5*level(i)
	}
	out := ConditionTwoPass(xs, 80)
	// Samples inside the long run (bits 14..18, away from edges) must
	// stay clearly positive.
	bad := 0
	for i := 145; i < 185; i++ {
		if out[i] < 0.3 {
			bad++
		}
	}
	if bad > 4 {
		t.Errorf("two-pass conditioning lost %d/40 long-run samples", bad)
	}
	// And single-pass should demonstrably struggle there (the reason the
	// two-pass exists).
	single := Condition(xs, 80)
	worse := 0
	for i := 145; i < 185; i++ {
		if single[i] < 0.3 {
			worse++
		}
	}
	if worse <= bad {
		t.Logf("single-pass run samples lost: %d, two-pass: %d", worse, bad)
	}
}

func TestConditionTwoPassZeroSeries(t *testing.T) {
	out := ConditionTwoPass([]float64{5, 5, 5, 5}, 2)
	for _, v := range out {
		if v != 0 {
			t.Errorf("constant series should condition to zeros, got %v", out)
		}
	}
}

func TestConditionTwoPassMatchesSinglePassOnBalanced(t *testing.T) {
	// For a perfectly balanced alternating signal both paths agree in
	// sign everywhere.
	n := 300
	xs := make([]float64, n)
	for i := range xs {
		v := 10.0
		if (i/5)%2 == 0 {
			v += 0.4
		}
		xs[i] = v
	}
	a := Condition(xs, 60)
	b := ConditionTwoPass(xs, 60)
	for i := 30; i < n-30; i++ {
		if (a[i] > 0) != (b[i] > 0) {
			t.Fatalf("sign disagreement at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestConditionTwoPassIntoAllocs pins that conditioning into caller-owned
// buffers allocates nothing: the prefix row is the caller's.
func TestConditionTwoPassIntoAllocs(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = math.Sin(float64(i) / 9)
	}
	dst, prefix := make([]float64, len(xs)), make([]float64, len(xs)+1)
	if n := testing.AllocsPerRun(20, func() { ConditionTwoPassInto(dst, xs, prefix, 40) }); n != 0 {
		t.Errorf("ConditionTwoPassInto allocates %v times per call, want 0", n)
	}
}

func BenchmarkConditionTwoPassInto(b *testing.B) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = math.Sin(float64(i) / 9)
	}
	dst, prefix := make([]float64, len(xs)), make([]float64, len(xs)+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConditionTwoPassInto(dst, xs, prefix, 40)
	}
}
