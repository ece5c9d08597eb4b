package eval

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/downlink"
	"repro/internal/faults"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/tag"
	"repro/internal/wifi"
)

// The exactness oracle for the fig14 and fig15 trial bodies: the bodies
// that kept a series and decoded it with DecodeCSI after Run, kept
// verbatim (renamed with a ref prefix). The online bodies, which stream
// the frame and skip the captures outside it, must render the same
// tables.

// refHelperLocations reproduces Fig. 14: the probability of receiving a
// correct packet on the uplink for each helper location, with the tag
// 5 cm from the reader transmitting 64-bit CRC-protected messages at
// 100 bps.
func refHelperLocations(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		Title: "Figure 14: uplink packet delivery vs helper location",
		Note: "paper: delivery stays high at every location, including the " +
			"non-line-of-sight one — the uplink depends on the tag-reader " +
			"distance, not the helper's position",
		Columns: []string{"location", "distance", "walls", "delivery probability"},
	}
	deliveredPer, err := parallel.Map(opt.engine(), len(TestbedLocations)*opt.Trials,
		func(i int) (bool, error) {
			loc := TestbedLocations[i/opt.Trials]
			trial := i % opt.Trials
			sys, err := core.NewSystem(core.Config{
				Seed:              opt.Seed + int64(trial)*5003 + int64(loc.Distance*10),
				HelperTagDistance: loc.Distance,
				HelperWalls:       loc.Walls,
				Faults:            opt.Faults,
			})
			if err != nil {
				return false, err
			}
			if err := (&wifi.CBRSource{
				Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 1.0 / helperRate,
			}).Start(); err != nil {
				return false, err
			}
			msg := downlink.NewMessage(uint64(opt.Seed) + uint64(trial)*77)
			mod, err := sys.TransmitUplink(tag.FrameBits(tag.Scramble(msg.PayloadBits())), 1.0, 100)
			if err != nil {
				return false, err
			}
			sys.Run(mod.End() + 0.5)
			dec, err := sys.UplinkDecoder(100)
			if err != nil {
				return false, err
			}
			res, err := dec.DecodeCSI(sys.Series(), mod.Start(), downlink.PayloadBits)
			if err != nil {
				return false, err
			}
			got, perr := downlink.ParsePayload(tag.Scramble(res.Payload))
			return perr == nil && got.Data == msg.Data, nil
		})
	if err != nil {
		return nil, err
	}
	for li, loc := range TestbedLocations {
		delivered := 0
		for trial := 0; trial < opt.Trials; trial++ {
			if deliveredPer[li*opt.Trials+trial] {
				delivered++
			}
		}
		t.AddRow(loc.Name, fmt.Sprintf("%.1f m", float64(loc.Distance)),
			fmt.Sprintf("%d", loc.Walls),
			fmt.Sprintf("%.2f", float64(delivered)/float64(opt.Trials)))
	}
	return t, nil
}

// refAmbientTraffic reproduces Fig. 15: achievable uplink rate using only
// the traffic already on the network, across the office day.
func refAmbientTraffic(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		Title: "Figure 15: achievable rate from ambient traffic vs time of day",
		Note: "paper: rate tracks network load — roughly 100–200 bps through " +
			"the afternoon peak with no injected traffic",
		Columns: []string{"time", "load pkt/s", "achievable bit rate"},
	}
	eng := opt.engine()
	for _, hour := range []float64{12, 13, 14, 15, 16, 17, 18, 19, 20} {
		load := wifi.OfficeLoad(hour)
		rate, err := refAchievableRate(eng, AmbientRates, func(rate float64, trial int) (int, int, error) {
			sys, err := core.NewSystem(core.Config{
				Seed:   opt.Seed + int64(trial)*6007 + int64(hour)*31 + int64(rate),
				Faults: opt.Faults,
			})
			if err != nil {
				return 0, 0, err
			}
			if err := (&wifi.PoissonSource{
				Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 400,
				Rate: load, Rnd: rng.New(opt.Seed + int64(trial) + int64(hour*7)),
			}).Start(); err != nil {
				return 0, 0, err
			}
			payload := core.RandomPayload(opt.PayloadLen, opt.Seed+int64(trial))
			mod, err := sys.TransmitUplink(tag.FrameBits(payload), 1.0, rate)
			if err != nil {
				return 0, 0, err
			}
			sys.Run(mod.End() + 0.5)
			dec, err := sys.UplinkDecoder(rate)
			if err != nil {
				return 0, 0, err
			}
			res, err := dec.DecodeCSI(sys.Series(), mod.Start(), opt.PayloadLen)
			if err != nil {
				return 0, 0, err
			}
			return core.CountBitErrors(res.Payload, payload), opt.PayloadLen, nil
		}, opt.Trials)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%02.0f:00", hour), fmt.Sprintf("%.0f", load),
			fmt.Sprintf("%.0f bps", rate))
	}
	return t, nil
}

// TestNetworkTrialsMatchReference renders fig14 and fig15 with the online
// bodies and the reference ones, clean at several seeds and under the
// fault profiles whose draws the online decode leaves in order, and
// requires identical tables.
func TestNetworkTrialsMatchReference(t *testing.T) {
	type run struct {
		seed    int64
		profile string
	}
	runs := []run{{1, ""}, {2, ""}, {1, "fading"}, {2, "dropout"}, {1, "corrupt"}, {2, "lossy"}}
	for _, r := range runs {
		opt := Options{Seed: r.seed, Trials: 1, PayloadLen: 45, Workers: 2}
		if r.profile != "" {
			sched, err := faults.Profile(r.profile, 1)
			if err != nil {
				t.Fatal(err)
			}
			opt.Faults = sched
		}
		for _, fig := range []struct {
			name      string
			got, want func(Options) (*Table, error)
		}{
			{"fig14", HelperLocations, refHelperLocations},
			{"fig15", AmbientTraffic, refAmbientTraffic},
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
