package csi

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/rng"
)

// The exactness oracle for the one-slab report: Measure with a fresh
// slice per CSI row and for RSSI, kept verbatim (renamed with a ref
// prefix). Card.Measure must report the same values from the same draws.

func refMeasure(c *Card, t float64, h [][]complex128) Measurement {
	m := Measurement{
		Timestamp: t,
		CSI:       make([][]float64, len(h)),
		RSSI:      make([]float64, len(h)),
	}
	agc := 1 + c.rnd.Gaussian(0, c.model.AGCNoise)
	for a, row := range h {
		gain := agc
		if a == c.model.WeakAntenna && c.model.WeakAntennaGain > 0 {
			gain *= c.model.WeakAntennaGain
		}
		if c.model.SpuriousProb > 0 && c.rnd.Float64() < c.model.SpuriousProb {
			if c.rnd.Bool() {
				gain *= 1 + c.model.SpuriousScale
			} else {
				gain *= 1 - c.model.SpuriousScale
			}
		}
		csiRow := make([]float64, len(row))
		var power float64
		for k, hk := range row {
			amp := cmplx.Abs(hk) * gain * (1 + c.rnd.Gaussian(0, c.model.SubchannelNoise))
			if amp < 0 {
				amp = 0
			}
			power += amp * amp
			csiRow[k] = quantize(amp, c.model.QuantStep)
		}
		m.CSI[a] = csiRow
		rssi := powerDB(power) + c.rnd.Gaussian(0, c.model.RSSINoiseDB)
		m.RSSI[a] = quantize(rssi, c.model.RSSIQuantDB)
	}
	return m
}

// randomChannel draws a channel of the given row lengths.
func randomChannel(r *rng.Stream, rows []int) [][]complex128 {
	h := make([][]complex128, len(rows))
	for a, n := range rows {
		h[a] = make([]complex128, n)
		for k := range h[a] {
			h[a][k] = r.ComplexGaussian(100)
		}
	}
	return h
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestMeasureMatchesReference(t *testing.T) {
	model := DefaultModel()
	model.SpuriousProb = 0.3 // exercise the spurious-jump draws
	shapes := [][]int{{30, 30, 30}, {1}, {4, 4}, {0, 0}, {}, {30, 29, 30}, {3, 0, 5}}
	got := NewCard(model, rng.New(7))
	ref := NewCard(model, rng.New(7))
	in := rng.New(8)
	for round := 0; round < 20; round++ {
		for _, rows := range shapes {
			h := randomChannel(in, rows)
			g, w := got.Measure(float64(round), h), refMeasure(ref, float64(round), h)
			if len(g.CSI) != len(w.CSI) || !sameFloats(g.RSSI, w.RSSI) {
				t.Fatalf("shape %v: RSSI %v, reference %v", rows, g.RSSI, w.RSSI)
			}
			for a := range w.CSI {
				if !sameFloats(g.CSI[a], w.CSI[a]) {
					t.Fatalf("shape %v antenna %d: CSI %v, reference %v", rows, a, g.CSI[a], w.CSI[a])
				}
			}
		}
	}
}

// TestMeasureIntoMatchesReference reuses one report across every shape,
// so it takes both the in-place path (repeated shapes) and the fresh-slab
// path (a changed shape), and each report must equal the reference's.
func TestMeasureIntoMatchesReference(t *testing.T) {
	model := DefaultModel()
	model.SpuriousProb = 0.3
	shapes := [][]int{{30, 30, 30}, {30, 30, 30}, {1}, {30, 29, 30}, {30, 30, 30}, {3, 0, 5}, {3, 0, 5}, {}}
	got := NewCard(model, rng.New(7))
	ref := NewCard(model, rng.New(7))
	in := rng.New(8)
	var g Measurement
	for round := 0; round < 20; round++ {
		for _, rows := range shapes {
			h := randomChannel(in, rows)
			got.MeasureInto(&g, float64(round), h)
			w := refMeasure(ref, float64(round), h)
			if math.Float64bits(g.Timestamp) != math.Float64bits(w.Timestamp) ||
				len(g.CSI) != len(w.CSI) || !sameFloats(g.RSSI, w.RSSI) {
				t.Fatalf("shape %v: report %v, reference %v", rows, g, w)
			}
			for a := range w.CSI {
				if !sameFloats(g.CSI[a], w.CSI[a]) {
					t.Fatalf("shape %v antenna %d: CSI %v, reference %v", rows, a, g.CSI[a], w.CSI[a])
				}
			}
		}
	}
}

// TestMeasureRowsDoNotAlias pins the slab's 3-index cuts: appending to a
// CSI row or to RSSI reallocates, so it never writes into the next row or
// into RSSI.
func TestMeasureRowsDoNotAlias(t *testing.T) {
	m := NewCard(DefaultModel(), rng.New(3)).Measure(0, flatChannel(3, 30, 10))
	snap := Measurement{RSSI: append([]float64(nil), m.RSSI...)}
	for _, row := range m.CSI {
		snap.CSI = append(snap.CSI, append([]float64(nil), row...))
	}
	for a := range m.CSI {
		_ = append(m.CSI[a], -1, -2)
	}
	_ = append(m.RSSI, -1)
	for a := range snap.CSI {
		if !sameFloats(m.CSI[a], snap.CSI[a]) {
			t.Errorf("row %d changed after appends: %v, want %v", a, m.CSI[a], snap.CSI[a])
		}
	}
	if !sameFloats(m.RSSI, snap.RSSI) {
		t.Errorf("RSSI changed after appends: %v, want %v", m.RSSI, snap.RSSI)
	}
}
