package uplink

// Exports for the external tests (package uplink_test), which import
// packages that import uplink, such as internal/faults.

import (
	"testing"

	"repro/internal/csi"
	"repro/internal/tag"
)

// LaneStats is a copy of one lane's condition+score output (channelStats),
// taken before the frame scratch goes back to the pool.
type LaneStats struct {
	ID                          ChannelID
	Corr, Sign, Variance, Score float64
	Cond, Means                 []float64
	OK                          []bool
}

func copyLanes(stats []channelStats) []LaneStats {
	out := make([]LaneStats, len(stats))
	for i, st := range stats {
		out[i] = LaneStats{
			ID: st.id, Corr: st.corr, Sign: st.sign, Variance: st.variance, Score: st.score,
			Cond:  append([]float64(nil), st.cond...),
			Means: append([]float64(nil), st.means...),
			OK:    append([]bool(nil), st.ok...),
		}
	}
	return out
}

// CloseLanes pushes the measurements of s that precede sd's frame end,
// then runs the frame close's stages up to the ranking over them as decode
// does (bin, the fault seam, condition+score) and returns copies of every
// lane's stats in scan order. sd is spent.
func CloseLanes(sd *StreamDecoder, s *csi.Series) ([]LaneStats, error) {
	for _, m := range s.Measurements {
		if m.Timestamp >= sd.End() {
			break
		}
		if _, err := sd.Push(m); err != nil {
			return nil, err
		}
	}
	defer sd.release()
	fs := getScratch(len(sd.chans), sd.n, sd.nbits)
	defer putScratch(fs)
	return copyLanes(sd.analyze(fs)), nil
}

// AckLanes runs DetectAck's bin and score stages over the burst window at
// start and returns copies of every lane's stats in scan order, or nil
// when DetectAck would find the window too short to score.
func (d *Decoder) AckLanes(s *csi.Series, start float64) []LaneStats {
	sd := d.newWindow(s, start, start+float64(len(preambleLevels))*d.cfg.BitDuration)
	defer sd.release()
	if sd.n < len(preambleLevels) {
		return nil
	}
	fs := getScratch(len(sd.chans), sd.n, sd.nbits)
	defer putScratch(fs)
	sd.bin(fs.off)
	return copyLanes(sd.scoreLanes(fs))
}

// BenchSeries and LongRangeBenchSeries are the benchmarks' transmissions.
func BenchSeries(tb testing.TB) (*csi.Series, *tag.Modulator, []bool) { return benchSeries(tb) }

var LongRangeBenchSeries = longRangeBenchSeries

// AllVariants is the paper's pipeline plus the five ablations.
var AllVariants = allVariants
