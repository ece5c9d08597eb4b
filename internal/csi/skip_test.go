package csi

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// TestSkipIntoMatchesMeasureInto is the draw-parity oracle for SkipInto:
// on two cards sharing a seed, skipping a packet on one and measuring it
// on the other must leave both streams where the next MeasureInto reports
// the same values bit for bit. The models cover the spurious-jump draws
// (a probability high enough that both branches of the coin occur), none
// at all, and the weak antenna off and on; the shapes include ragged and
// empty rows.
func TestSkipIntoMatchesMeasureInto(t *testing.T) {
	spurious := DefaultModel()
	spurious.SpuriousProb = 0.4
	noSpurious := DefaultModel()
	noSpurious.SpuriousProb = 0
	noWeak := spurious
	noWeak.WeakAntenna = -1
	shapes := [][]int{{30, 30, 30}, {1}, {30, 29, 30}, {3, 0, 5}, {}}
	for mi, model := range []Model{DefaultModel(), spurious, noSpurious, noWeak} {
		for _, rows := range shapes {
			measured := NewCard(model, rng.New(11))
			skipped := NewCard(model, rng.New(11))
			in := rng.New(12)
			var mm, ms Measurement
			for round := 0; round < 30; round++ {
				h := randomChannel(in, rows)
				at := float64(round) * 1e-3
				measured.MeasureInto(&mm, at, h)
				if round%3 != 2 {
					skipped.SkipInto(&ms, at, h)
					if math.Float64bits(ms.Timestamp) != math.Float64bits(at) || !ms.hasShape(h) {
						t.Fatalf("model %d shape %v round %d: skipped report at %v, shaped %v",
							mi, rows, round, ms.Timestamp, ms.hasShape(h))
					}
					continue
				}
				skipped.MeasureInto(&ms, at, h)
				if !sameFloats(ms.RSSI, mm.RSSI) {
					t.Fatalf("model %d shape %v round %d: RSSI %v after skips, %v measured",
						mi, rows, round, ms.RSSI, mm.RSSI)
				}
				for a := range mm.CSI {
					if !sameFloats(ms.CSI[a], mm.CSI[a]) {
						t.Fatalf("model %d shape %v round %d antenna %d: CSI %v after skips, %v measured",
							mi, rows, round, a, ms.CSI[a], mm.CSI[a])
					}
				}
			}
		}
	}
}
