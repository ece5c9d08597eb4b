package eval

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/parallel"
	"repro/internal/tag"
	"repro/internal/units"
	"repro/internal/uplink"
	"repro/internal/wifi"
)

// The exactness oracle for the streamed window decodes of the ack and
// fig5 experiments: the bodies that kept a series and ran DetectAck or
// DecodeSingleChannel over it after Run, kept verbatim (renamed with a ref
// prefix). The streamed bodies must print the same tables, clean and under
// fault profiles: the streams decode after Run, where the batch decodes
// did, so the fault injector's draws stay in order.

// refAckDetection characterizes §4.1's one-bit ACK burst: detection and
// false-alarm rates of the bare-preamble ACK across distance.
func refAckDetection(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		Title: "§4.1 claim: one-bit uplink ACK bursts (13-bit preamble only)",
		Note: "the tag acknowledges with a minimal burst; the reader detects " +
			"it by many-channel preamble correlation",
		Columns: []string{"distance", "detections", "false alarms"},
	}
	distances := []float64{5, 25, 45, 65}
	type outcome struct{ detected, falseAlarm bool }
	results, err := parallel.Map(opt.engine(), len(distances)*opt.Trials,
		func(i int) (outcome, error) {
			cm := distances[i/opt.Trials]
			trial := i % opt.Trials
			sys, err := core.NewSystem(core.Config{
				Seed:              opt.Seed + int64(trial)*11003 + int64(cm),
				TagReaderDistance: units.Centimeters(cm),
				Faults:            opt.Faults,
			})
			if err != nil {
				return outcome{}, err
			}
			if err := (&wifi.CBRSource{
				Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 1.0 / helperRate,
			}).Start(); err != nil {
				return outcome{}, err
			}
			mod, err := sys.TransmitUplink(uplink.AckBits(), 1.0, helperRate/10)
			if err != nil {
				return outcome{}, err
			}
			sys.Run(mod.End() + 1.0)
			dec, err := sys.UplinkDecoder(helperRate / 10)
			if err != nil {
				return outcome{}, err
			}
			var out outcome
			out.detected, _, err = dec.DetectAck(sys.Series(), mod.Start())
			if err != nil {
				return outcome{}, err
			}
			// Probe an idle window for a false alarm.
			out.falseAlarm, _, err = dec.DetectAck(sys.Series(), mod.End()+0.3)
			if err != nil {
				return outcome{}, err
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	for di, cm := range distances {
		detected, falses := 0, 0
		for trial := 0; trial < opt.Trials; trial++ {
			o := results[di*opt.Trials+trial]
			if o.detected {
				detected++
			}
			if o.falseAlarm {
				falses++
			}
		}
		t.AddRow(fmt.Sprintf("%.0f cm", cm),
			fmt.Sprintf("%d/%d", detected, opt.Trials),
			fmt.Sprintf("%d/%d", falses, opt.Trials))
	}
	return t, nil
}

// refGoodSubchannels reproduces Fig. 5: for each distance, which sub-channels
// decode with BER < 1e-2 on their own. One simulation per distance; every
// sub-channel of antenna 0 is decoded from the same series.
func refGoodSubchannels(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		Title: "Figure 5: sub-channels with BER < 1e-2 vs distance (antenna 0)",
		Note: "paper: the set of good sub-channels varies significantly with tag " +
			"position; no sub-channel is consistently good",
		Columns: []string{"distance", "good sub-channels", "count"},
	}
	payload := opt.PayloadLen
	distances := []float64{5, 15, 25, 35, 45, 55, 65}
	// Each distance runs one self-contained simulation; fan them out.
	goodPer, err := parallel.Map(opt.engine(), len(distances), func(i int) ([]int, error) {
		cm := distances[i]
		sys, err := core.NewSystem(core.Config{
			Seed:              opt.Seed + int64(cm)*101,
			TagReaderDistance: units.Centimeters(cm),
			Faults:            opt.Faults,
		})
		if err != nil {
			return nil, err
		}
		if err := (&wifi.CBRSource{
			Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 1.0 / helperRate,
		}).Start(); err != nil {
			return nil, err
		}
		payloadBits := core.RandomPayload(payload, opt.Seed+int64(cm))
		mod, err := sys.TransmitUplink(tag.FrameBits(payloadBits), 1.0, helperRate/30)
		if err != nil {
			return nil, err
		}
		sys.Run(mod.End() + 0.5)
		dec, err := sys.UplinkDecoder(helperRate / 30)
		if err != nil {
			return nil, err
		}
		var good []int
		for k := 0; k < sys.Series().Subchannels(); k++ {
			res, err := dec.DecodeSingleChannel(sys.Series(), mod.Start(), payload, 0, k)
			if err != nil {
				return nil, err
			}
			if errs := core.CountBitErrors(res.Payload, payloadBits); float64(errs)/float64(payload) < 1e-2 {
				good = append(good, k)
			}
		}
		return good, nil
	})
	if err != nil {
		return nil, err
	}
	for i, cm := range distances {
		t.AddRow(fmt.Sprintf("%.0f cm", cm), intsToString(goodPer[i]), fmt.Sprintf("%d", len(goodPer[i])))
	}
	return t, nil
}

// TestWindowedDecodesMatchReference runs the ack and fig5 experiments
// through the streamed bodies and the reference ones, clean at two seeds,
// under every fault kind at once, and under sample corruption with
// capture drops throughout (so a decode moved off its place after Run
// would interleave its draws with the drops'), and requires identical
// tables.
func TestWindowedDecodesMatchReference(t *testing.T) {
	for _, r := range []struct {
		seed    int64
		profile string
	}{{1, ""}, {2, ""}, {1, "chaos"}, {3, "corrupt@0:60x1;csidrop@0:60x0.5"}} {
		opt := Options{Seed: r.seed, Trials: 2, PayloadLen: 45, Workers: 2}
		if r.profile != "" {
			sched, err := faults.ParseSpec(r.profile)
			if err != nil {
				t.Fatal(err)
			}
			opt.Faults = sched
		}
		for _, fig := range []struct {
			name      string
			got, want func(Options) (*Table, error)
		}{
			{"ack", AckDetection, refAckDetection},
			{"fig5", GoodSubchannels, refGoodSubchannels},
		} {
			name := fmt.Sprintf("%s seed %d %q", fig.name, r.seed, r.profile)
			got, err := fig.got(opt)
			want, werr := fig.want(opt)
			if err != nil || werr != nil {
				t.Fatalf("%s: %v, reference %v", name, err, werr)
			}
			if got.String() != want.String() {
				t.Errorf("%s: table differs from the reference:\n%s\n%s", name, got, want)
			}
		}
	}
}
