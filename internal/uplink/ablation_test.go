package uplink

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dsp"
	"repro/internal/tag"
)

// ablationTrial decodes one synthetic transmission with the given variant
// and returns the bit error count.
func ablationTrial(t *testing.T, v Variant, cfg synthConfig, seed int64) int {
	t.Helper()
	payload := randomPayload(90, seed)
	const bitDur = 0.01
	mod, err := tag.NewModulator(tag.FrameBits(payload), 1.0, bitDur)
	if err != nil {
		t.Fatal(err)
	}
	cfg.duration = mod.End() + 0.5
	s := synthSeries(cfg, mod, seed+500)
	d, _ := NewDecoder(DefaultConfig(bitDur))
	res, err := d.DecodeVariant(s, mod.Start(), len(payload), v)
	if err != nil {
		t.Fatal(err)
	}
	return countBitErrors(res.Payload, payload)
}

// allVariants is the paper's pipeline plus the five ablations, each
// changing one stage choice.
var allVariants = []Variant{
	PaperVariant,
	{Combining: CombineEqualGain},
	{Combining: CombineBestSingle},
	{Decision: DecidePlainVote},
	{Decision: DecideBitMean},
	{Binning: BinEqualCount},
}

// sameResult reports whether two decode results are identical: payload,
// selected channels, and the exact bits of both statistics.
func sameResult(a, b *Result) bool {
	return reflect.DeepEqual(a.Payload, b.Payload) && reflect.DeepEqual(a.Good, b.Good) &&
		math.Float64bits(a.PreambleCorrelation) == math.Float64bits(b.PreambleCorrelation) &&
		math.Float64bits(a.MeasurementsPerBit) == math.Float64bits(b.MeasurementsPerBit)
}

// recordingImpairment is a fake fault layer: it kicks every seventh sample
// of each channel deterministically and records what it was handed.
type recordingImpairment struct {
	start, end float64
	calls      map[ChannelID]int
	samples    int
	outside    int // samples handed over from outside [start, end)
}

func newRecordingImpairment(start, end float64) *recordingImpairment {
	return &recordingImpairment{start: start, end: end, calls: map[ChannelID]int{}}
}

func (r *recordingImpairment) ImpairChannel(id ChannelID, ts, raw []float64) {
	r.calls[id]++
	r.samples += len(raw)
	for i, t := range ts {
		if t < r.start || t >= r.end {
			r.outside++
		}
		if (i+id.Antenna+id.Subchannel)%7 == 0 {
			raw[i] *= 1.5
		}
	}
}

// check asserts one call per CSI channel, each with in-frame samples only.
func (r *recordingImpairment) check(t *testing.T, what string, ants, subs int) {
	t.Helper()
	if len(r.calls) != ants*subs {
		t.Errorf("%s: impaired %d channels, want %d", what, len(r.calls), ants*subs)
	}
	for a := 0; a < ants; a++ {
		for k := 0; k < subs; k++ {
			if n := r.calls[ChannelID{a, k}]; n != 1 {
				t.Errorf("%s: channel (%d, %d) impaired %d times, want once", what, a, k, n)
			}
		}
	}
	if r.samples == 0 || r.outside != 0 {
		t.Errorf("%s: impaired %d samples, %d of them outside the frame", what, r.samples, r.outside)
	}
}

// TestPaperVariantMatchesDecodeCSI pins that the paper variant is DecodeCSI
// exactly — the whole Result, bit for bit — both clean and with a fault
// layer corrupting every channel.
func TestPaperVariantMatchesDecodeCSI(t *testing.T) {
	payload := randomPayload(90, 1)
	const bitDur = 0.01
	mod, _ := tag.NewModulator(tag.FrameBits(payload), 1.0, bitDur)
	cfg := defaultSynth()
	cfg.duration = mod.End() + 0.5
	s := synthSeries(cfg, mod, 2)
	var clean *Result
	for _, impaired := range []bool{false, true} {
		d, _ := NewDecoder(DefaultConfig(bitDur))
		if impaired {
			d.Impair = newRecordingImpairment(mod.Start(), mod.End())
		}
		a, err := d.DecodeCSI(s, mod.Start(), len(payload))
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.DecodeVariant(s, mod.Start(), len(payload), PaperVariant)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(a, b) {
			t.Errorf("impaired=%v: paper variant %+v diverges from DecodeCSI %+v", impaired, b, a)
		}
		if !impaired {
			clean = a
		} else if sameResult(a, clean) {
			t.Error("the impairment never reached the decode")
		}
	}
}

// TestImpairmentReachesVariantsAndLongRange pins that the ablations and
// long range run through the streaming core's impairment seam: every CSI
// channel is handed to Decoder.Impair exactly once, with in-frame samples.
func TestImpairmentReachesVariantsAndLongRange(t *testing.T) {
	cfg := defaultSynth()
	payload := randomPayload(40, 5)
	mod, _ := tag.NewModulator(tag.FrameBits(payload), 1.0, 0.01)
	cfg.duration = mod.End() + 0.5
	s := synthSeries(cfg, mod, 6)
	d, _ := NewDecoder(DefaultConfig(0.01))
	for _, v := range allVariants {
		rec := newRecordingImpairment(mod.Start(), mod.End())
		d.Impair = rec
		if _, err := d.DecodeVariant(s, mod.Start(), len(payload), v); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		rec.check(t, v.String(), cfg.antennas, cfg.subchannels)
	}

	code0, code1, _ := dsp.WalshPair(8)
	chips := tag.ExpandWithCodes(payload[:8], code0, code1)
	frame := append(append(append([]bool{}, tag.Preamble...), chips...), tag.Postamble...)
	lmod, _ := tag.NewModulator(frame, 1.0, 0.005)
	cfg.duration = lmod.End() + 0.5
	ls := synthSeries(cfg, lmod, 7)
	ld, _ := NewDecoder(DefaultConfig(0.005))
	rec := newRecordingImpairment(lmod.Start(), lmod.End())
	ld.Impair = rec
	if _, err := ld.DecodeLongRange(ls, lmod.Start(), 8, code0, code1); err != nil {
		t.Fatal(err)
	}
	rec.check(t, "long range", cfg.antennas, cfg.subchannels)
}

func TestMRCBeatsBestSingleAtWeakDepth(t *testing.T) {
	cfg := defaultSynth()
	cfg.depth = 0.04
	var mrc, single int
	for seed := int64(0); seed < 4; seed++ {
		mrc += ablationTrial(t, PaperVariant, cfg, 30+seed)
		single += ablationTrial(t, Variant{Combining: CombineBestSingle}, cfg, 30+seed)
	}
	if mrc > single {
		t.Errorf("MRC errors (%d) should not exceed best-single errors (%d)", mrc, single)
	}
}

func TestEqualGainNoBetterThanMRC(t *testing.T) {
	cfg := defaultSynth()
	cfg.depth = 0.035
	var mrc, eq int
	for seed := int64(0); seed < 5; seed++ {
		mrc += ablationTrial(t, PaperVariant, cfg, 60+seed)
		eq += ablationTrial(t, Variant{Combining: CombineEqualGain}, cfg, 60+seed)
	}
	// MRC is optimal for unequal noise; allow ties but not a clear loss.
	if mrc > eq+3 {
		t.Errorf("MRC errors (%d) should not exceed equal-gain errors (%d) by a margin", mrc, eq)
	}
}

func TestHysteresisHelpsWithSpikes(t *testing.T) {
	// Inject heavy-tailed spikes: hysteresis+vote should beat bit-mean,
	// which a single spike inside a bit can flip.
	cfg := defaultSynth()
	cfg.depth = 0.15
	mkSeries := func(seed int64) int {
		payload := randomPayload(90, seed)
		mod, _ := tag.NewModulator(tag.FrameBits(payload), 1.0, 0.01)
		cfg.duration = mod.End() + 0.5
		s := synthSeries(cfg, mod, seed+900)
		// Spike 3% of measurements by 20x.
		spike := 0
		for i := range s.Measurements {
			if i%33 == 0 {
				for a := range s.Measurements[i].CSI {
					for k := range s.Measurements[i].CSI[a] {
						s.Measurements[i].CSI[a][k] *= 20
					}
				}
				spike++
			}
		}
		d, _ := NewDecoder(DefaultConfig(0.01))
		hv, err := d.DecodeVariant(s, mod.Start(), len(payload), PaperVariant)
		if err != nil {
			t.Fatal(err)
		}
		bm, err := d.DecodeVariant(s, mod.Start(), len(payload), Variant{Decision: DecideBitMean})
		if err != nil {
			t.Fatal(err)
		}
		return countBitErrors(bm.Payload, payload) - countBitErrors(hv.Payload, payload)
	}
	total := 0
	for seed := int64(0); seed < 3; seed++ {
		total += mkSeries(100 + seed)
	}
	if total < 0 {
		t.Errorf("bit-mean should not beat hysteresis+vote under spikes (diff %d)", total)
	}
}

func TestTimestampBinningBeatsEqualCountUnderBursts(t *testing.T) {
	// Bursty packet timing: equal-count binning misassigns measurements.
	cfg := defaultSynth()
	cfg.depth = 0.15
	cfg.jitter = 1.8 // heavily irregular arrivals
	var tsErrs, eqErrs int
	for seed := int64(0); seed < 4; seed++ {
		tsErrs += ablationTrial(t, PaperVariant, cfg, 200+seed)
		eqErrs += ablationTrial(t, Variant{Binning: BinEqualCount}, cfg, 200+seed)
	}
	if tsErrs > eqErrs {
		t.Errorf("timestamp binning (%d errors) should not lose to equal-count (%d)", tsErrs, eqErrs)
	}
}

func TestVariantStrings(t *testing.T) {
	v := Variant{CombineEqualGain, DecidePlainVote, BinEqualCount}
	if got := v.String(); got != "equal-gain/plain-vote/equal-count" {
		t.Errorf("Variant.String() = %q", got)
	}
	if PaperVariant.String() != "mrc/hysteresis-vote/timestamp" {
		t.Errorf("PaperVariant.String() = %q", PaperVariant.String())
	}
}

func TestDecodeVariantValidation(t *testing.T) {
	d, _ := NewDecoder(DefaultConfig(0.01))
	mod, _ := tag.NewModulator([]bool{true}, 0, 0.01)
	s := synthSeries(defaultSynth(), mod, 1)
	if _, err := d.DecodeVariant(s, 0, 0, PaperVariant); err == nil {
		t.Error("zero payload should error")
	}
}

func TestBinEqualCount(t *testing.T) {
	ts := []float64{0.1, 1.1, 1.2, 1.3, 1.4, 5.0}
	// Window [1.0, 1.4): three in-window samples split 2/1.
	off := make([]int, 3)
	binEqualCount(off, ts, 1.0, 0.2)
	if off[1]-off[0] != 2 || off[2]-off[1] != 1 || off[0] != 1 {
		t.Errorf("equal-count bin boundaries = %v, want [1 3 4]", off)
	}
	binEqualCount(off, ts, 100, 0.2)
	if off[1] != off[0] || off[2] != off[1] {
		t.Errorf("out-of-window bins should be empty: %v", off)
	}
}
