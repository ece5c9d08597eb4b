package uplink

import (
	"math"
	"testing"

	"repro/internal/csi"
	"repro/internal/dsp"
	"repro/internal/rng"
	"repro/internal/tag"
)

// synthSeries builds a synthetic measurement series for a tag transmission:
// each (antenna, sub-channel) has a base level and a signed coupling to the
// tag's switch state; AGC noise is common-mode per packet, sub-channel
// noise independent. pktRate is in packets/second.
type synthConfig struct {
	antennas, subchannels int
	pktRate               float64
	duration              float64
	depth                 float64 // relative modulation depth scale
	goodFrac              float64 // fraction of channels with strong coupling
	agcNoise              float64
	subNoise              float64
	rssiNoise             float64
	rssiQuant             float64
	jitter                float64 // packet timing jitter fraction
}

func defaultSynth() synthConfig {
	return synthConfig{
		antennas: 3, subchannels: 30,
		pktRate: 1000, duration: 4,
		depth: 0.2, goodFrac: 0.4,
		agcNoise: 0.02, subNoise: 0.01,
		rssiNoise: 0.3, rssiQuant: 1,
		jitter: 0.3,
	}
}

func synthSeries(cfg synthConfig, mod *tag.Modulator, seed int64) *csi.Series {
	rnd := rng.New(seed)
	base := make([][]float64, cfg.antennas)
	coupling := make([][]float64, cfg.antennas)
	for a := range base {
		base[a] = make([]float64, cfg.subchannels)
		coupling[a] = make([]float64, cfg.subchannels)
		for k := range base[a] {
			base[a][k] = 5 + 10*rnd.Float64()
			c := 0.0
			if rnd.Float64() < cfg.goodFrac {
				c = cfg.depth * (0.5 + rnd.Float64())
				if rnd.Bool() {
					c = -c
				}
			} else {
				c = cfg.depth * 0.05 * (rnd.Float64() - 0.5)
			}
			coupling[a][k] = c
		}
	}
	s := &csi.Series{}
	interval := 1 / cfg.pktRate
	for t := 0.0; t < cfg.duration; t += interval * (1 + cfg.jitter*(rnd.Float64()-0.5)) {
		state := 0.0
		if mod.StateAt(t) {
			state = 1
		}
		agc := 1 + rnd.Gaussian(0, cfg.agcNoise)
		m := csi.Measurement{Timestamp: t}
		m.CSI = make([][]float64, cfg.antennas)
		m.RSSI = make([]float64, cfg.antennas)
		for a := 0; a < cfg.antennas; a++ {
			m.CSI[a] = make([]float64, cfg.subchannels)
			var power float64
			for k := 0; k < cfg.subchannels; k++ {
				amp := base[a][k] * (1 + coupling[a][k]*state) * agc *
					(1 + rnd.Gaussian(0, cfg.subNoise))
				m.CSI[a][k] = amp
				power += amp * amp
			}
			r := 10*math.Log10(power) + rnd.Gaussian(0, cfg.rssiNoise)
			m.RSSI[a] = math.Round(r/cfg.rssiQuant) * cfg.rssiQuant
		}
		s.Append(m)
	}
	return s
}

// randomPayload builds a deterministic pseudo-random payload.
func randomPayload(n int, seed int64) []bool {
	rnd := rng.New(seed)
	out := make([]bool, n)
	for i := range out {
		out[i] = rnd.Bool()
	}
	return out
}

func countBitErrors(got, want []bool) int {
	errs := 0
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			errs++
		}
	}
	return errs
}

func TestNewDecoderValidation(t *testing.T) {
	if _, err := NewDecoder(Config{}); err == nil {
		t.Error("zero config should error")
	}
	if _, err := NewDecoder(Config{BitDuration: 0.01}); err == nil {
		t.Error("missing window should error")
	}
	if _, err := NewDecoder(Config{BitDuration: 0.01, ConditionWindow: 0.4}); err == nil {
		t.Error("zero good subchannels should error")
	}
	if _, err := NewDecoder(DefaultConfig(0.01)); err != nil {
		t.Errorf("default config should validate: %v", err)
	}
}

func TestDecodeCSICleanLink(t *testing.T) {
	payload := randomPayload(90, 1)
	const bitDur = 0.01 // 100 bps, 10 pkts/bit at 1000 pkt/s
	mod, err := tag.NewModulator(tag.FrameBits(payload), 1.0, bitDur)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultSynth()
	cfg.duration = mod.End() + 0.5
	s := synthSeries(cfg, mod, 2)
	d, _ := NewDecoder(DefaultConfig(bitDur))
	res, err := d.DecodeCSI(s, mod.Start(), len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if errs := countBitErrors(res.Payload, payload); errs != 0 {
		t.Errorf("clean link produced %d/%d bit errors", errs, len(payload))
	}
	if !d.Detected(res) {
		t.Errorf("clean link preamble correlation %v below detection threshold", res.PreambleCorrelation)
	}
	if res.MeasurementsPerBit < 5 || res.MeasurementsPerBit > 20 {
		t.Errorf("measurements/bit = %v, want ~10", res.MeasurementsPerBit)
	}
	if len(res.Good) != 10 {
		t.Errorf("selected %d channels, want 10", len(res.Good))
	}
}

func TestDecodeCSIWeakLinkDegrades(t *testing.T) {
	payload := randomPayload(90, 3)
	const bitDur = 0.01
	mod, _ := tag.NewModulator(tag.FrameBits(payload), 1.0, bitDur)
	run := func(depth float64) int {
		cfg := defaultSynth()
		cfg.depth = depth
		cfg.duration = mod.End() + 0.5
		s := synthSeries(cfg, mod, 4)
		d, _ := NewDecoder(DefaultConfig(bitDur))
		res, err := d.DecodeCSI(s, mod.Start(), len(payload))
		if err != nil {
			t.Fatal(err)
		}
		return countBitErrors(res.Payload, payload)
	}
	strong := run(0.2)
	weak := run(0.004)
	if strong > 0 {
		t.Errorf("strong link errors = %d, want 0", strong)
	}
	if weak <= strong {
		t.Errorf("weak link (%d errors) should be worse than strong (%d)", weak, strong)
	}
}

func TestDecodeCSISurvivesSpuriousJumps(t *testing.T) {
	// Inject spurious whole-packet jumps and verify hysteresis+vote keep
	// the payload intact.
	payload := randomPayload(90, 5)
	const bitDur = 0.01
	mod, _ := tag.NewModulator(tag.FrameBits(payload), 1.0, bitDur)
	cfg := defaultSynth()
	cfg.duration = mod.End() + 0.5
	s := synthSeries(cfg, mod, 6)
	rnd := rng.New(7)
	for _, m := range s.Measurements {
		if rnd.Float64() < 0.01 {
			f := 1.3
			if rnd.Bool() {
				f = 0.7
			}
			for a := range m.CSI {
				for k := range m.CSI[a] {
					m.CSI[a][k] *= f
				}
			}
		}
	}
	d, _ := NewDecoder(DefaultConfig(bitDur))
	res, err := d.DecodeCSI(s, mod.Start(), len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if errs := countBitErrors(res.Payload, payload); errs > 1 {
		t.Errorf("spurious jumps caused %d bit errors", errs)
	}
}

func TestDecodeRSSIWorksAtStrongDepth(t *testing.T) {
	payload := randomPayload(90, 8)
	const bitDur = 0.01
	mod, _ := tag.NewModulator(tag.FrameBits(payload), 1.0, bitDur)
	cfg := defaultSynth()
	cfg.depth = 0.3
	cfg.duration = mod.End() + 0.5
	s := synthSeries(cfg, mod, 9)
	d, _ := NewDecoder(DefaultConfig(bitDur))
	res, err := d.DecodeRSSI(s, mod.Start(), len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if errs := countBitErrors(res.Payload, payload); errs > 2 {
		t.Errorf("RSSI decode errors = %d at strong depth", errs)
	}
	if len(res.Good) != 1 || res.Good[0].Subchannel != -1 {
		t.Errorf("RSSI decode should use one RSSI channel, got %v", res.Good)
	}
}

func TestCSIOutperformsRSSI(t *testing.T) {
	// §3.3: "the BER performance is better with CSI information than
	// RSSI". At a marginal depth CSI should make fewer errors.
	payload := randomPayload(90, 10)
	const bitDur = 0.01
	mod, _ := tag.NewModulator(tag.FrameBits(payload), 1.0, bitDur)
	var csiErrs, rssiErrs int
	for seed := int64(0); seed < 5; seed++ {
		cfg := defaultSynth()
		cfg.depth = 0.05
		cfg.duration = mod.End() + 0.5
		s := synthSeries(cfg, mod, 20+seed)
		d, _ := NewDecoder(DefaultConfig(bitDur))
		rc, err := d.DecodeCSI(s, mod.Start(), len(payload))
		if err != nil {
			t.Fatal(err)
		}
		rr, err := d.DecodeRSSI(s, mod.Start(), len(payload))
		if err != nil {
			t.Fatal(err)
		}
		csiErrs += countBitErrors(rc.Payload, payload)
		rssiErrs += countBitErrors(rr.Payload, payload)
	}
	if csiErrs >= rssiErrs {
		t.Errorf("CSI errors (%d) should be below RSSI errors (%d)", csiErrs, rssiErrs)
	}
}

func TestDecodeSingleChannelWorseThanCombined(t *testing.T) {
	// Fig. 11: random single sub-channel vs the diversity-combining
	// algorithm.
	payload := randomPayload(90, 11)
	const bitDur = 0.01
	mod, _ := tag.NewModulator(tag.FrameBits(payload), 1.0, bitDur)
	cfg := defaultSynth()
	cfg.depth = 0.05
	cfg.duration = mod.End() + 0.5
	s := synthSeries(cfg, mod, 12)
	d, _ := NewDecoder(DefaultConfig(bitDur))
	full, err := d.DecodeCSI(s, mod.Start(), len(payload))
	if err != nil {
		t.Fatal(err)
	}
	fullErrs := countBitErrors(full.Payload, payload)
	rnd := rng.New(13)
	singleErrs := 0
	const trials = 10
	for i := 0; i < trials; i++ {
		res, err := d.DecodeSingleChannel(s, mod.Start(), len(payload),
			rnd.Intn(3), rnd.Intn(30))
		if err != nil {
			t.Fatal(err)
		}
		singleErrs += countBitErrors(res.Payload, payload)
	}
	if fullErrs > singleErrs/trials {
		t.Errorf("combined decode (%d errors) should beat average random sub-channel (%d/%d)",
			fullErrs, singleErrs, trials)
	}
}

func TestDecodeValidation(t *testing.T) {
	d, _ := NewDecoder(DefaultConfig(0.01))
	s := &csi.Series{}
	if _, err := d.DecodeCSI(s, 0, 10); err == nil {
		t.Error("empty series should error")
	}
	if _, err := d.DecodeCSI(s, 0, 0); err == nil {
		t.Error("zero payload should error")
	}
	if _, err := d.DecodeRSSI(s, 0, 10); err == nil {
		t.Error("empty series should error for RSSI")
	}
}

func TestBinByTimestamp(t *testing.T) {
	ts := []float64{0.5, 1.005, 1.015, 1.025, 1.095, 2.5}
	off := make([]int, 11)
	binByTimestamp(off, ts, 1.0, 0.01)
	// Bins 0, 1, 2 and 9 hold samples 1, 2, 3 and 4; 3..8 are empty.
	want := []int{1, 2, 3, 4, 4, 4, 4, 4, 4, 4, 5}
	for j := range want {
		if off[j] != want[j] {
			t.Fatalf("bin boundaries = %v, want %v", off, want)
		}
	}
	if total := off[10] - off[0]; total != 4 {
		t.Errorf("out-of-window samples leaked into bins: %d", total)
	}
}

func TestWindowSamples(t *testing.T) {
	ts := make([]float64, 1001)
	for i := range ts {
		ts[i] = float64(i) * 0.001 // 1000 pkt/s for 1 s
	}
	if got := windowSamples(ts, 0.4); got < 390 || got > 410 {
		t.Errorf("windowSamples = %d, want ~400", got)
	}
	if got := windowSamples([]float64{1}, 0.4); got != 1 {
		t.Errorf("degenerate series window = %d, want 1", got)
	}
	if got := windowSamples([]float64{1, 1}, 0.4); got != 1 {
		t.Errorf("zero-span series window = %d, want 1", got)
	}
}

func TestChannelIDString(t *testing.T) {
	if got := (ChannelID{1, 5}).String(); got != "csi[ant 1, sub 5]" {
		t.Errorf("String = %q", got)
	}
	if got := (ChannelID{2, -1}).String(); got != "rssi[ant 2]" {
		t.Errorf("String = %q", got)
	}
}

func TestNormalizedChannelBimodal(t *testing.T) {
	// A strongly-coupled channel's conditioned values should be bimodal
	// at ±1 — the structure Fig. 4 plots.
	payload := randomPayload(200, 14)
	const bitDur = 0.01
	mod, _ := tag.NewModulator(tag.FrameBits(payload), 0.5, bitDur)
	cfg := defaultSynth()
	cfg.goodFrac = 1 // every channel strongly coupled
	cfg.duration = mod.End() + 0.5
	s := synthSeries(cfg, mod, 15)
	d, _ := NewDecoder(DefaultConfig(bitDur))
	cond, err := d.NormalizedChannel(s, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := dsp.NewHistogram(-3, 3, 30)
	h.AddAll(cond)
	modes := h.Modes(0.08)
	if len(modes) < 2 {
		t.Errorf("conditioned strong channel should be bimodal, found %d modes", len(modes))
	}
}

func TestDetectedThreshold(t *testing.T) {
	d, _ := NewDecoder(DefaultConfig(0.01))
	if d.Detected(nil) {
		t.Error("nil result should not be detected")
	}
	if d.Detected(&Result{PreambleCorrelation: 0.1}) {
		t.Error("weak correlation should not be detected")
	}
	if !d.Detected(&Result{PreambleCorrelation: 0.9}) {
		t.Error("strong correlation should be detected")
	}
}

func TestDecodeOutsideMeasurementWindow(t *testing.T) {
	// A start time past every measurement must error, not panic.
	payload := randomPayload(20, 40)
	mod, _ := tag.NewModulator(tag.FrameBits(payload), 1.0, 0.01)
	cfg := defaultSynth()
	cfg.duration = 2
	s := synthSeries(cfg, mod, 41)
	d, _ := NewDecoder(DefaultConfig(0.01))
	if _, err := d.DecodeCSI(s, 100, 20); err == nil {
		t.Error("decode beyond the series should error")
	}
	if _, err := d.DecodeRSSI(s, 100, 20); err == nil {
		t.Error("RSSI decode beyond the series should error")
	}
	if _, err := d.DecodeSingleChannel(s, 100, 20, 0, 0); err == nil {
		t.Error("single-channel decode beyond the series should error")
	}
}

func TestFrameRange(t *testing.T) {
	ts := []float64{0, 1, 2, 3, 4, 5}
	lo, hi := frameRange(ts, 1.5, 4.5)
	if lo != 2 || hi != 5 {
		t.Errorf("frameRange = (%d, %d), want (2, 5)", lo, hi)
	}
	lo, hi = frameRange(ts, 10, 20)
	if lo != hi {
		t.Errorf("out-of-range frame should be empty, got (%d, %d)", lo, hi)
	}
	lo, hi = frameRange(ts, -5, 0.5)
	if lo != 0 || hi != 1 {
		t.Errorf("leading frame = (%d, %d), want (0, 1)", lo, hi)
	}
}

func TestDecodeCSIWithPartialCoverage(t *testing.T) {
	// Measurements covering only the first half of the frame: the
	// decoder should still return a result (trailing bits default) and
	// not panic on empty bins.
	payload := randomPayload(40, 42)
	mod, _ := tag.NewModulator(tag.FrameBits(payload), 1.0, 0.01)
	cfg := defaultSynth()
	cfg.duration = mod.Start() + (mod.End()-mod.Start())/2
	s := synthSeries(cfg, mod, 43)
	d, _ := NewDecoder(DefaultConfig(0.01))
	res, err := d.DecodeCSI(s, mod.Start(), 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Payload) != 40 {
		t.Fatalf("payload length = %d", len(res.Payload))
	}
	// The covered half should be mostly right.
	errs := 0
	for i := 0; i < 15; i++ {
		if res.Payload[i] != payload[i] {
			errs++
		}
	}
	if errs > 3 {
		t.Errorf("covered half decoded with %d/15 errors", errs)
	}
}
