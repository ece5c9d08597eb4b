package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/dsp"
	"repro/internal/faults"
	"repro/internal/tag"
	"repro/internal/units"
	"repro/internal/uplink"
	"repro/internal/wifi"
)

// The exactness oracle for the trial runner: the four Run*Trial bodies
// that decoded the whole retained series after Run, kept verbatim
// (renamed with a ref prefix; refRunLongRangeTrial also returns the
// decoder's LongRangeResult). The online runner must give the same
// results, margins and metrics snapshots.

// refRunUplinkTrial executes one tag transmission over helper traffic and
// decodes it: build system → warm up traffic → transmit → decode.
func refRunUplinkTrial(spec UplinkTrialSpec) (*UplinkTrialResult, error) {
	if spec.BitRate <= 0 || spec.PayloadLen <= 0 {
		return nil, fmt.Errorf("core: invalid trial spec: rate %v, payload %d",
			spec.BitRate, spec.PayloadLen)
	}
	if spec.HelperPacketsPerSecond <= 0 {
		return nil, fmt.Errorf("core: helper rate must be positive")
	}
	sys, err := NewSystem(spec.Config)
	if err != nil {
		return nil, err
	}
	if err := startHelperTraffic(sys, spec); err != nil {
		return nil, err
	}
	payload := RandomPayload(spec.PayloadLen, spec.Config.Seed+7777)
	const txStart = 1.0 // warm-up so the conditioning window has context
	mod, err := sys.TransmitUplink(tag.FrameBits(payload), txStart, spec.BitRate)
	if err != nil {
		return nil, err
	}
	sys.Run(mod.End() + 0.5)
	dec, err := sys.UplinkDecoder(spec.BitRate)
	if err != nil {
		return nil, err
	}
	var res *uplink.Result
	switch spec.Mode {
	case uplink.StreamRSSI:
		res, err = dec.DecodeRSSI(sys.Series(), mod.Start(), spec.PayloadLen)
	default:
		res, err = dec.DecodeCSI(sys.Series(), mod.Start(), spec.PayloadLen)
	}
	if err != nil {
		return nil, err
	}
	return &UplinkTrialResult{
		Sent:      payload,
		Result:    res,
		BitErrors: CountBitErrors(res.Payload, payload),
		Detected:  dec.Detected(res),
		Metrics:   sys.Metrics().Snapshot(),
	}, nil
}

// refRunUplinkVariantTrial is RunUplinkTrial decoding with an ablated
// pipeline variant instead of the paper's.
func refRunUplinkVariantTrial(spec UplinkTrialSpec, v uplink.Variant) (*UplinkTrialResult, error) {
	if spec.BitRate <= 0 || spec.PayloadLen <= 0 || spec.HelperPacketsPerSecond <= 0 {
		return nil, fmt.Errorf("core: invalid trial spec")
	}
	sys, err := NewSystem(spec.Config)
	if err != nil {
		return nil, err
	}
	if err := startHelperTraffic(sys, spec); err != nil {
		return nil, err
	}
	payload := RandomPayload(spec.PayloadLen, spec.Config.Seed+7777)
	mod, err := sys.TransmitUplink(tag.FrameBits(payload), 1.0, spec.BitRate)
	if err != nil {
		return nil, err
	}
	sys.Run(mod.End() + 0.5)
	dec, err := sys.UplinkDecoder(spec.BitRate)
	if err != nil {
		return nil, err
	}
	res, err := dec.DecodeVariant(sys.Series(), mod.Start(), spec.PayloadLen, v)
	if err != nil {
		return nil, err
	}
	return &UplinkTrialResult{
		Sent:      payload,
		Result:    res,
		BitErrors: CountBitErrors(res.Payload, payload),
		Detected:  dec.Detected(res),
		Metrics:   sys.Metrics().Snapshot(),
	}, nil
}

// refRunSingleChannelTrial is RunUplinkTrial but decoding from exactly one
// (antenna, sub-channel) pair — the Fig. 5 / Fig. 11 baseline.
func refRunSingleChannelTrial(spec UplinkTrialSpec, antenna, subchannel int) (*UplinkTrialResult, error) {
	if spec.BitRate <= 0 || spec.PayloadLen <= 0 || spec.HelperPacketsPerSecond <= 0 {
		return nil, fmt.Errorf("core: invalid trial spec")
	}
	sys, err := NewSystem(spec.Config)
	if err != nil {
		return nil, err
	}
	if err := (&wifi.CBRSource{
		Station:  sys.Helper,
		Dst:      wifi.MAC{0x02, 0, 0, 0, 0, 9},
		Payload:  200,
		Interval: 1 / spec.HelperPacketsPerSecond,
	}).Start(); err != nil {
		return nil, err
	}
	payload := RandomPayload(spec.PayloadLen, spec.Config.Seed+7777)
	mod, err := sys.TransmitUplink(tag.FrameBits(payload), 1.0, spec.BitRate)
	if err != nil {
		return nil, err
	}
	sys.Run(mod.End() + 0.5)
	dec, err := sys.UplinkDecoder(spec.BitRate)
	if err != nil {
		return nil, err
	}
	res, err := dec.DecodeSingleChannel(sys.Series(), mod.Start(), spec.PayloadLen, antenna, subchannel)
	if err != nil {
		return nil, err
	}
	return &UplinkTrialResult{
		Sent:      payload,
		Result:    res,
		BitErrors: CountBitErrors(res.Payload, payload),
		Detected:  dec.Detected(res),
		Metrics:   sys.Metrics().Snapshot(),
	}, nil
}

// refRunLongRangeTrial executes one coded long-range transmission (§3.4) with
// orthogonal codes of length codeLen and returns the bit error count. It
// also returns the decoder's own result, whose margins the trial drops.
func refRunLongRangeTrial(spec UplinkTrialSpec, codeLen int) (*UplinkTrialResult, *uplink.LongRangeResult, error) {
	if spec.BitRate <= 0 || spec.PayloadLen <= 0 || spec.HelperPacketsPerSecond <= 0 {
		return nil, nil, fmt.Errorf("core: invalid trial spec")
	}
	code0, code1, err := dsp.WalshPair(codeLen)
	if err != nil {
		return nil, nil, err
	}
	sys, err := NewSystem(spec.Config)
	if err != nil {
		return nil, nil, err
	}
	if err := (&wifi.CBRSource{
		Station:  sys.Helper,
		Dst:      wifi.MAC{0x02, 0, 0, 0, 0, 9},
		Payload:  200,
		Interval: 1 / spec.HelperPacketsPerSecond,
	}).Start(); err != nil {
		return nil, nil, err
	}
	payload := RandomPayload(spec.PayloadLen, spec.Config.Seed+7777)
	chips := tag.ExpandWithCodes(payload, code0, code1)
	frame := make([]bool, 0, 26+len(chips))
	frame = append(frame, tag.Preamble...)
	frame = append(frame, chips...)
	frame = append(frame, tag.Postamble...)
	mod, err := sys.TransmitUplink(frame, 1.0, spec.BitRate)
	if err != nil {
		return nil, nil, err
	}
	sys.Run(mod.End() + 0.5)
	dec, err := sys.UplinkDecoder(spec.BitRate)
	if err != nil {
		return nil, nil, err
	}
	res, err := dec.DecodeLongRange(sys.Series(), mod.Start(), spec.PayloadLen, code0, code1)
	if err != nil {
		return nil, nil, err
	}
	return &UplinkTrialResult{
		Sent:      payload,
		Result:    &uplink.Result{Payload: res.Payload, Good: res.Good, PreambleCorrelation: 1},
		BitErrors: CountBitErrors(res.Payload, payload),
		Detected:  true,
		Metrics:   sys.Metrics().Snapshot(),
	}, res, nil
}

// sameResult requires two trial outcomes to match exactly: the sent and
// decoded bits, the selected channels, every float by Float64bits,
// detection, bit errors and the whole metrics snapshot (so
// uplink.stream.pushes and the buffer high-water mark too).
func sameResult(t *testing.T, name string, got, want *UplinkTrialResult) {
	t.Helper()
	g, w := got.Result, want.Result
	switch {
	case !reflect.DeepEqual(got.Sent, want.Sent):
		t.Errorf("%s: sent %v, reference %v", name, got.Sent, want.Sent)
	case !reflect.DeepEqual(g.Payload, w.Payload) || !reflect.DeepEqual(g.Good, w.Good):
		t.Errorf("%s: payload/good %v %v, reference %v %v", name, g.Payload, g.Good, w.Payload, w.Good)
	case math.Float64bits(g.PreambleCorrelation) != math.Float64bits(w.PreambleCorrelation) ||
		math.Float64bits(g.MeasurementsPerBit) != math.Float64bits(w.MeasurementsPerBit):
		t.Errorf("%s: correlation %v, %v per bit; reference %v, %v", name,
			g.PreambleCorrelation, g.MeasurementsPerBit, w.PreambleCorrelation, w.MeasurementsPerBit)
	case got.Detected != want.Detected || got.BitErrors != want.BitErrors:
		t.Errorf("%s: detected %v with %d errors, reference %v with %d", name,
			got.Detected, got.BitErrors, want.Detected, want.BitErrors)
	case !reflect.DeepEqual(got.Metrics, want.Metrics):
		t.Errorf("%s: metrics snapshot differs from the reference:\n%+v\n%+v", name, got.Metrics, want.Metrics)
	}
}

// refTrialSpecs returns the specs the oracle runs: several seeds, two
// distances (one near the edge of CSI's range), CBR, beacon and bursty
// traffic, and each seed once more under a zero-intensity fault schedule,
// which must replay the clean run.
func refTrialSpecs(t *testing.T) []UplinkTrialSpec {
	zero, err := faults.Profile("chaos", 1)
	if err != nil {
		t.Fatal(err)
	}
	var specs []UplinkTrialSpec
	for _, seed := range []int64{1, 2, 3} {
		for _, cm := range []float64{10, 45} {
			cfg := Config{Seed: seed, TagReaderDistance: units.Centimeters(cm)}
			specs = append(specs,
				UplinkTrialSpec{Config: cfg, BitRate: 100, HelperPacketsPerSecond: 1000, PayloadLen: 40},
				UplinkTrialSpec{Config: cfg, BitRate: 20, HelperPacketsPerSecond: 200, PayloadLen: 12, UseBeacons: true},
				UplinkTrialSpec{Config: cfg, BitRate: 50, HelperPacketsPerSecond: 1000, PayloadLen: 30, Bursty: true},
			)
		}
		cfg := Config{Seed: seed, TagReaderDistance: units.Centimeters(30), Faults: zero.Scaled(0)}
		specs = append(specs, UplinkTrialSpec{Config: cfg, BitRate: 100, HelperPacketsPerSecond: 1000, PayloadLen: 40})
	}
	return specs
}

func TestTrialsMatchReference(t *testing.T) {
	variants := []uplink.Variant{
		{Combining: uplink.CombineEqualGain, Decision: uplink.DecidePlainVote, Binning: uplink.BinEqualCount},
		{Combining: uplink.CombineBestSingle, Decision: uplink.DecideBitMean},
	}
	for i, spec := range refTrialSpecs(t) {
		cbr := !spec.UseBeacons && !spec.Bursty
		for _, mode := range []uplink.StreamMode{uplink.StreamCSI, uplink.StreamRSSI} {
			spec.Mode = mode
			name := fmt.Sprintf("spec %d %v uplink", i, mode)
			got, err := RunUplinkTrial(spec)
			want, werr := refRunUplinkTrial(spec)
			if err != nil || werr != nil {
				t.Fatalf("%s: %v, reference %v", name, err, werr)
			}
			sameResult(t, name, got, want)
		}
		spec.Mode = uplink.StreamCSI
		for _, v := range variants {
			name := fmt.Sprintf("spec %d variant %v", i, v)
			got, err := RunUplinkVariantTrial(spec, v)
			want, werr := refRunUplinkVariantTrial(spec, v)
			if err != nil || werr != nil {
				t.Fatalf("%s: %v, reference %v", name, err, werr)
			}
			sameResult(t, name, got, want)
		}
		if !cbr {
			continue // the reference single-channel and long-range bodies ran CBR only
		}
		name := fmt.Sprintf("spec %d single channel", i)
		got, err := RunSingleChannelTrial(spec, i%3, (7*i)%30)
		want, werr := refRunSingleChannelTrial(spec, i%3, (7*i)%30)
		if err != nil || werr != nil {
			t.Fatalf("%s: %v, reference %v", name, err, werr)
		}
		sameResult(t, name, got, want)
	}
}

// TestLongRangeTrialsMatchReference runs long range at two code lengths
// and also compares the per-bit margins, read from the runner's stream.
func TestLongRangeTrialsMatchReference(t *testing.T) {
	for i, spec := range refTrialSpecs(t) {
		if spec.UseBeacons || spec.Bursty {
			continue
		}
		spec.BitRate, spec.PayloadLen = 500, 8
		for _, L := range []int{4, 16} {
			name := fmt.Sprintf("spec %d long range L=%d", i, L)
			got, err := RunLongRangeTrial(spec, L)
			want, lr, werr := refRunLongRangeTrial(spec, L)
			if err != nil || werr != nil {
				t.Fatalf("%s: %v, reference %v", name, err, werr)
			}
			sameResult(t, name, got, want)

			code0, code1, err := dsp.WalshPair(L)
			if err != nil {
				t.Fatal(err)
			}
			var sd *uplink.StreamDecoder
			frame := func(payload []bool) []bool {
				chips := tag.ExpandWithCodes(payload, code0, code1)
				return append(append(append([]bool(nil), tag.Preamble...), chips...), tag.Postamble...)
			}
			if _, err := runTrial(spec, frame, func(dec *uplink.Decoder, start float64) (*uplink.StreamDecoder, error) {
				sd, err = dec.NewLongRangeStream(start, spec.PayloadLen, code0, code1)
				return sd, err
			}); err != nil {
				t.Fatal(err)
			}
			m := sd.Margins()
			if len(m) != len(lr.Margins) {
				t.Fatalf("%s: %d margins, reference %d", name, len(m), len(lr.Margins))
			}
			for b := range m {
				if math.Float64bits(m[b]) != math.Float64bits(lr.Margins[b]) {
					t.Fatalf("%s: bit %d margin %v, reference %v", name, b, m[b], lr.Margins[b])
				}
			}
		}
	}
}

// TestTrialErrorsMatchReference checks that what failed before still
// fails: invalid specs and an out-of-range single channel.
func TestTrialErrorsMatchReference(t *testing.T) {
	good := UplinkTrialSpec{Config: Config{Seed: 4}, BitRate: 100, HelperPacketsPerSecond: 1000, PayloadLen: 20}
	for _, spec := range []UplinkTrialSpec{
		{},
		{BitRate: 100, PayloadLen: 10},
		{BitRate: -1, HelperPacketsPerSecond: 1000, PayloadLen: 10},
		{BitRate: 100, HelperPacketsPerSecond: 1000},
	} {
		_, err := RunUplinkTrial(spec)
		_, werr := refRunUplinkTrial(spec)
		_, verr := RunUplinkVariantTrial(spec, uplink.PaperVariant)
		_, lerr := RunLongRangeTrial(spec, 4)
		if err == nil || werr == nil || verr == nil || lerr == nil {
			t.Errorf("spec %+v: errors %v / %v / %v, reference %v", spec, err, verr, lerr, werr)
		}
	}
	for _, ch := range [][2]int{{9, 99}, {0, 30}, {-1, 0}} {
		_, err := RunSingleChannelTrial(good, ch[0], ch[1])
		_, werr := refRunSingleChannelTrial(good, ch[0], ch[1])
		if err == nil || werr == nil {
			t.Errorf("channel %v: error %v, reference %v", ch, err, werr)
		}
	}
}
