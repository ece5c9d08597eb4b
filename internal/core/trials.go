package core

import (
	"errors"
	"fmt"

	"repro/internal/dsp"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/tag"
	"repro/internal/uplink"
	"repro/internal/wifi"
)

// This file provides the single-trial workhorses the evaluation harness
// (internal/eval) sweeps over.

// UplinkTrialSpec configures one uplink transmission trial.
type UplinkTrialSpec struct {
	// System config (seed, geometry, models).
	Config Config
	// BitRate of the tag, bits/second.
	BitRate float64
	// HelperPacketsPerSecond is the CBR injection rate at the helper
	// (the paper inserts delays between injected packets to set this).
	HelperPacketsPerSecond float64
	// PayloadLen in bits (the paper's runs use 90).
	PayloadLen int
	// Mode selects CSI or RSSI decoding; the zero value is CSI.
	Mode uplink.StreamMode
	// UseBeacons replaces CBR data traffic with AP beacons at
	// HelperPacketsPerSecond (Fig. 16).
	UseBeacons bool
	// Bursty replaces CBR with heavy-tailed on/off traffic at roughly
	// HelperPacketsPerSecond, exercising the timestamp-binning logic.
	Bursty bool
}

// UplinkTrialResult is one trial's outcome.
type UplinkTrialResult struct {
	// Sent is the transmitted payload.
	Sent []bool
	// Result is the decoder output.
	Result *uplink.Result
	// BitErrors counts payload mismatches.
	BitErrors int
	// Detected reports whether the preamble correlation cleared the
	// detection threshold.
	Detected bool
	// Metrics is the trial System's metrics snapshot, taken after the
	// decode. Aggregate across trials with obs.Registry.Merge.
	Metrics *obs.Snapshot
}

// startHelperTraffic wires the spec's traffic source to the helper.
func startHelperTraffic(sys *System, spec UplinkTrialSpec) error {
	dst := wifi.MAC{0x02, 0, 0, 0, 0, 9}
	switch {
	case spec.UseBeacons:
		return (&wifi.BeaconSource{
			Station:  sys.Helper,
			Interval: 1 / spec.HelperPacketsPerSecond,
		}).Start()
	case spec.Bursty:
		// Bursts of ~20 packets with gaps sized to hit the average
		// rate.
		const burst = 20.0
		const inBurst = 0.0005
		gap := burst/spec.HelperPacketsPerSecond - burst*inBurst
		if gap < 0.001 {
			gap = 0.001
		}
		return (&wifi.BurstySource{
			Station: sys.Helper, Dst: dst, Payload: 200,
			MeanBurst: burst, MeanGap: gap, InBurstInterval: inBurst,
			Rnd: rng.New(spec.Config.Seed + 991),
		}).Start()
	default:
		return (&wifi.CBRSource{
			Station:  sys.Helper,
			Dst:      dst,
			Payload:  200,
			Interval: 1 / spec.HelperPacketsPerSecond,
		}).Start()
	}
}

// RandomPayload returns a deterministic pseudo-random payload.
func RandomPayload(n int, seed int64) []bool {
	rnd := rng.New(seed)
	out := make([]bool, n)
	for i := range out {
		out[i] = rnd.Bool()
	}
	return out
}

// CountBitErrors compares two payloads; missing decoded bits count as
// errors.
func CountBitErrors(got, want []bool) int {
	errs := 0
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			errs++
		}
	}
	return errs
}

// RunUplinkTrial executes one tag transmission over helper traffic and
// decodes it in the spec's mode.
func RunUplinkTrial(spec UplinkTrialSpec) (*UplinkTrialResult, error) {
	return runTrial(spec, tag.FrameBits, func(dec *uplink.Decoder, start float64) (*uplink.StreamDecoder, error) {
		return dec.NewStream(start, spec.PayloadLen, spec.Mode)
	})
}

// RunUplinkVariantTrial is RunUplinkTrial decoding CSI with an ablated
// pipeline variant instead of the paper's.
func RunUplinkVariantTrial(spec UplinkTrialSpec, v uplink.Variant) (*UplinkTrialResult, error) {
	return runTrial(spec, tag.FrameBits, func(dec *uplink.Decoder, start float64) (*uplink.StreamDecoder, error) {
		return dec.NewVariantStream(start, spec.PayloadLen, v)
	})
}

// RunSingleChannelTrial is RunUplinkTrial but decoding from exactly one
// (antenna, sub-channel) pair — the Fig. 5 / Fig. 11 baseline.
func RunSingleChannelTrial(spec UplinkTrialSpec, antenna, subchannel int) (*UplinkTrialResult, error) {
	return runTrial(spec, tag.FrameBits, func(dec *uplink.Decoder, start float64) (*uplink.StreamDecoder, error) {
		return dec.NewSingleChannelStream(start, spec.PayloadLen, antenna, subchannel)
	})
}

// RunLongRangeTrial executes one coded long-range transmission (§3.4) with
// orthogonal codes of length codeLen. The decoder picks channels by code
// discriminability, not by preamble, so the result reports the
// transmission detected, with a preamble correlation of 1, whenever a
// capture reached the frame.
func RunLongRangeTrial(spec UplinkTrialSpec, codeLen int) (*UplinkTrialResult, error) {
	code0, code1, err := dsp.WalshPair(codeLen)
	if err != nil {
		return nil, err
	}
	frame := func(payload []bool) []bool {
		chips := tag.ExpandWithCodes(payload, code0, code1)
		frame := make([]bool, 0, 26+len(chips))
		frame = append(frame, tag.Preamble...)
		frame = append(frame, chips...)
		return append(frame, tag.Postamble...)
	}
	out, err := runTrial(spec, frame, func(dec *uplink.Decoder, start float64) (*uplink.StreamDecoder, error) {
		return dec.NewLongRangeStream(start, spec.PayloadLen, code0, code1)
	})
	if err != nil || len(out.Result.Payload) == 0 {
		return out, err // a starved frame: nothing detected
	}
	res := out.Result
	out.Result = &uplink.Result{Payload: res.Payload, Good: res.Good, PreambleCorrelation: 1}
	out.Detected = true
	return out, nil
}

// DecodeStream decodes one frame online: it subscribes sd (StreamTo),
// runs the system to until, past the frame's end, and returns sd.Flush's
// Result. A frame no capture reached gives an empty Result: the trial
// lost its whole payload, a result rather than a failed experiment.
func (s *System) DecodeStream(sd *uplink.StreamDecoder, until float64) (*uplink.Result, error) {
	s.StreamTo(sd)
	s.Run(until)
	res, err := sd.Flush()
	if errors.Is(err, uplink.ErrNoMeasurements) {
		return &uplink.Result{}, nil
	}
	return res, err
}

// runTrial is the one body behind the Run*Trial entry points: build the
// system, start the spec's helper traffic, transmit frame(payload) from
// 1 s, and decode it online. open opens the trial's stream on the
// system's decoder, and DecodeStream runs it.
func runTrial(spec UplinkTrialSpec, frame func(payload []bool) []bool,
	open func(dec *uplink.Decoder, start float64) (*uplink.StreamDecoder, error)) (*UplinkTrialResult, error) {
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
	// The lead-in before the frame only advances the channel's fading and
	// the medium's MAC state: the decoder conditions in-frame samples
	// alone, so none of these captures reaches it.
	const txStart = 1.0
	mod, err := sys.TransmitUplink(frame(payload), txStart, spec.BitRate)
	if err != nil {
		return nil, err
	}
	dec, err := sys.UplinkDecoder(spec.BitRate)
	if err != nil {
		return nil, err
	}
	sd, err := open(dec, mod.Start())
	if err != nil {
		return nil, err
	}
	res, err := sys.DecodeStream(sd, mod.End()+0.5)
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
