package csi

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/rng"
)

// flatChannel builds a constant true channel with the given amplitude.
func flatChannel(antennas, subchannels int, amp float64) [][]complex128 {
	h := make([][]complex128, antennas)
	for a := range h {
		h[a] = make([]complex128, subchannels)
		for k := range h[a] {
			h[a][k] = complex(amp, 0)
		}
	}
	return h
}

func noiselessModel() Model {
	return Model{WeakAntenna: -1}
}

func TestMeasureNoiseless(t *testing.T) {
	card := NewCard(noiselessModel(), rng.New(1))
	m := card.Measure(1.5, flatChannel(3, 30, 10))
	if m.Timestamp != 1.5 {
		t.Errorf("timestamp = %v", m.Timestamp)
	}
	if len(m.CSI) != 3 || len(m.CSI[0]) != 30 || len(m.RSSI) != 3 {
		t.Fatalf("shape: %d antennas, %d subchannels, %d rssi", len(m.CSI), len(m.CSI[0]), len(m.RSSI))
	}
	for a := range m.CSI {
		for k, v := range m.CSI[a] {
			if v != 10 {
				t.Fatalf("noiseless CSI[%d][%d] = %v, want 10", a, k, v)
			}
		}
		// 30 subchannels at amplitude 10: power 3000 = 34.77 dB.
		if math.Abs(m.RSSI[a]-34.77) > 0.01 {
			t.Errorf("RSSI[%d] = %v, want ~34.77", a, m.RSSI[a])
		}
	}
}

func TestMeasureQuantization(t *testing.T) {
	model := noiselessModel()
	model.QuantStep = 0.5
	model.RSSIQuantDB = 1
	card := NewCard(model, rng.New(2))
	m := card.Measure(0, flatChannel(1, 4, 10.3))
	if m.CSI[0][0] != 10.5 {
		t.Errorf("quantized CSI = %v, want 10.5", m.CSI[0][0])
	}
	if m.RSSI[0] != math.Round(m.RSSI[0]) {
		t.Errorf("RSSI %v not on 1 dB grid", m.RSSI[0])
	}
}

func TestMeasureWeakAntenna(t *testing.T) {
	model := noiselessModel()
	model.WeakAntenna = 2
	model.WeakAntennaGain = 0.25
	card := NewCard(model, rng.New(3))
	m := card.Measure(0, flatChannel(3, 4, 8))
	if m.CSI[0][0] != 8 || m.CSI[1][0] != 8 {
		t.Errorf("normal antennas altered: %v, %v", m.CSI[0][0], m.CSI[1][0])
	}
	if m.CSI[2][0] != 2 {
		t.Errorf("weak antenna CSI = %v, want 2", m.CSI[2][0])
	}
}

func TestMeasureAGCNoiseIsCommonMode(t *testing.T) {
	model := noiselessModel()
	model.AGCNoise = 0.05
	card := NewCard(model, rng.New(4))
	m := card.Measure(0, flatChannel(2, 10, 10))
	// All subchannels of all antennas share the same per-packet gain, so
	// within one measurement every value is identical.
	first := m.CSI[0][0]
	for a := range m.CSI {
		for k := range m.CSI[a] {
			if m.CSI[a][k] != first {
				t.Fatalf("AGC noise should be common-mode: CSI[%d][%d]=%v != %v",
					a, k, m.CSI[a][k], first)
			}
		}
	}
	// But it must vary across packets.
	m2 := card.Measure(1, flatChannel(2, 10, 10))
	if m2.CSI[0][0] == first {
		t.Error("AGC noise should vary across packets")
	}
}

func TestMeasureSubchannelNoiseIndependent(t *testing.T) {
	model := noiselessModel()
	model.SubchannelNoise = 0.05
	card := NewCard(model, rng.New(5))
	m := card.Measure(0, flatChannel(1, 10, 10))
	distinct := map[float64]bool{}
	for _, v := range m.CSI[0] {
		distinct[v] = true
	}
	if len(distinct) < 5 {
		t.Errorf("subchannel noise should differ per subchannel, got %d distinct values", len(distinct))
	}
}

func TestMeasureSpuriousJumps(t *testing.T) {
	model := noiselessModel()
	model.SpuriousProb = 0.2
	model.SpuriousScale = 0.5
	card := NewCard(model, rng.New(6))
	jumps := 0
	const n = 2000
	for i := 0; i < n; i++ {
		m := card.Measure(float64(i), flatChannel(1, 2, 10))
		if math.Abs(m.CSI[0][0]-10) > 1 {
			jumps++
		}
	}
	frac := float64(jumps) / n
	if math.Abs(frac-0.2) > 0.04 {
		t.Errorf("spurious jump fraction = %v, want ~0.2", frac)
	}
}

func TestMeasureNoiseStatistics(t *testing.T) {
	model := noiselessModel()
	model.AGCNoise = 0.03
	card := NewCard(model, rng.New(7))
	const n = 20_000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		m := card.Measure(float64(i), flatChannel(1, 1, 10))
		v := m.CSI[0][0]
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sum2/n - mean*mean)
	if math.Abs(mean-10) > 0.02 {
		t.Errorf("mean = %v, want ~10", mean)
	}
	if math.Abs(sd-0.3) > 0.03 {
		t.Errorf("std = %v, want ~0.3 (3%% of 10)", sd)
	}
}

func TestNegativeAmplitudeClamped(t *testing.T) {
	model := noiselessModel()
	model.SubchannelNoise = 10 // absurd noise to force negative draws
	card := NewCard(model, rng.New(8))
	for i := 0; i < 100; i++ {
		m := card.Measure(0, flatChannel(1, 5, 1))
		for _, v := range m.CSI[0] {
			if v < 0 {
				t.Fatal("CSI amplitude must be clamped at 0")
			}
		}
	}
}

func TestRSSISilentChannel(t *testing.T) {
	card := NewCard(noiselessModel(), rng.New(9))
	m := card.Measure(0, flatChannel(1, 5, 0))
	if m.RSSI[0] != -100 {
		t.Errorf("silent RSSI = %v, want -100 floor", m.RSSI[0])
	}
}

func TestSeriesAccessors(t *testing.T) {
	card := NewCard(noiselessModel(), rng.New(10))
	var s Series
	if s.Antennas() != 0 || s.Subchannels() != 0 {
		t.Error("empty series should report zero shape")
	}
	for i := 0; i < 5; i++ {
		s.Append(card.Measure(float64(i), flatChannel(2, 3, float64(10+i))))
	}
	if s.Len() != 5 || s.Antennas() != 2 || s.Subchannels() != 3 {
		t.Fatalf("series shape: len=%d ant=%d sub=%d", s.Len(), s.Antennas(), s.Subchannels())
	}
	ch, err := s.CSIChannel(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ch {
		if v != float64(10+i) {
			t.Errorf("CSIChannel[%d] = %v, want %v", i, v, 10+i)
		}
	}
	ts := s.Timestamps()
	for i, v := range ts {
		if v != float64(i) {
			t.Errorf("Timestamps[%d] = %v", i, v)
		}
	}
	if _, err := s.CSIChannel(5, 0); err == nil {
		t.Error("out-of-range antenna should error")
	}
	if _, err := s.CSIChannel(0, 9); err == nil {
		t.Error("out-of-range subchannel should error")
	}
	if _, err := s.RSSIChannel(0); err != nil {
		t.Errorf("RSSIChannel: %v", err)
	}
	if _, err := s.RSSIChannel(7); err == nil {
		t.Error("out-of-range RSSI antenna should error")
	}
}

func TestDefaultModelSane(t *testing.T) {
	m := DefaultModel()
	if m.AGCNoise <= 0 || m.SubchannelNoise <= 0 || m.SpuriousProb <= 0 {
		t.Errorf("default model has disabled artifacts: %+v", m)
	}
	if m.WeakAntenna < 0 || m.WeakAntennaGain >= 1 {
		t.Errorf("default model should include a weak antenna: %+v", m)
	}
}

// TestCloneIsOneSlab holds Clone to a deep copy in Measure's layout: the
// RSSI entries and then each CSI row back to back in one array, each cut
// with its capacity at its own end. A ragged report and an RSSI-only one
// clone to their own shapes.
func TestCloneIsOneSlab(t *testing.T) {
	fresh := NewCard(DefaultModel(), rng.New(3)).Measure(0.25, flatChannel(3, 30, 10))
	ragged := Measurement{Timestamp: 1, RSSI: []float64{-40, -41}, CSI: [][]float64{{1, 2, 3}, {}, {4}}}
	rssiOnly := Measurement{Timestamp: 2, RSSI: []float64{-50, -51, -52}}
	for _, m := range []Measurement{fresh, ragged, rssiOnly} {
		c := m.Clone()
		if !sameFloats(c.RSSI, m.RSSI) || len(c.CSI) != len(m.CSI) || math.Float64bits(c.Timestamp) != math.Float64bits(m.Timestamp) {
			t.Fatalf("clone %+v of %+v", c, m)
		}
		next := unsafe.Pointer(unsafe.SliceData(c.RSSI))
		rows := append([][]float64{c.RSSI}, c.CSI...)
		for i, row := range rows {
			if i > 0 && !sameFloats(row, m.CSI[i-1]) {
				t.Fatalf("clone row %d %v of %v", i-1, row, m.CSI[i-1])
			}
			if cap(row) != len(row) || len(row) > 0 && unsafe.Pointer(&row[0]) != next {
				t.Fatalf("clone of %+v: row %d is not cut from the slab in order", m, i)
			}
			if len(row) > 0 {
				next = unsafe.Add(next, len(row)*8)
				row[0]++ // the clone owns its floats
			}
		}
		if sameFloats(c.RSSI, m.RSSI) && len(m.RSSI) > 0 {
			t.Fatalf("clone shares its RSSI with the source")
		}
	}
}
