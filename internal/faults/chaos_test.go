package faults_test

// Chaos/scenario suite: every built-in fault profile is driven through the
// real pipelines (uplink decode, downlink query decode, full transactions)
// at increasing intensity. Two properties are pinned:
//
//   - Recovery: a schedule scaled to intensity zero produces results
//     byte-identical to a run with no schedule at all. The injector exists
//     but draws nothing, so the clean channel is exactly recovered.
//   - Graceful degradation: decode success does not improve as intensity
//     rises (monotone within a small sampling slack), for every profile
//     and every layer.
//
// The operating points are chosen near the paper's range edges (Fig. 10)
// so injected impairments have somewhere to bite.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/units"
	"repro/internal/uplink"
	"repro/internal/wifi"
)

// chaosSeed keeps the suite's trials distinct from other tests.
const chaosSeed = 424200

// chaosPayloadLen is the uplink payload used across the suite.
const chaosPayloadLen = 60

// uplinkErrors sums the payload bit errors over trials uplink runs under
// the schedule (nil = clean channel). A trial whose decode fails outright
// (e.g. a stall starved the decoder of measurements) counts as a total
// loss of the payload — the severest possible degradation, not a harness
// error.
func uplinkErrors(t *testing.T, sched *faults.Schedule, trials int) int {
	t.Helper()
	total := 0
	for trial := 0; trial < trials; trial++ {
		res, err := core.RunUplinkTrial(core.UplinkTrialSpec{
			Config: core.Config{
				Seed:              chaosSeed + int64(trial)*7717,
				TagReaderDistance: units.Centimeters(35),
				Faults:            sched,
			},
			BitRate:                250,
			HelperPacketsPerSecond: 1000,
			PayloadLen:             chaosPayloadLen,
			Mode:                   uplink.StreamCSI,
		})
		if err != nil {
			total += chaosPayloadLen
			continue
		}
		total += res.BitErrors
	}
	return total
}

// txnOutcome aggregates transaction trials under the schedule: how many
// queries the tag decoded (the downlink layer), how many transactions
// completed (the full round trip), and the attempts consumed.
type txnOutcome struct {
	tagDecoded, responseOK, attempts int
}

func runTxns(t *testing.T, sched *faults.Schedule, trials int) txnOutcome {
	t.Helper()
	txn := core.DefaultTransactionConfig()
	txn.ResponseTimeout = 1.0
	txn.MaxAttempts = 3
	var out txnOutcome
	for trial := 0; trial < trials; trial++ {
		res, err := core.RunTransactionTrial(core.TransactionTrialSpec{
			Config: core.Config{
				Seed:              chaosSeed + 555 + int64(trial)*7717,
				TagReaderDistance: units.Centimeters(30),
				Faults:            sched,
			},
			HelperPacketsPerSecond: 1000,
			BitRate:                250,
			Data:                   0xC0FFEE,
			Txn:                    txn,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Result.TagDecoded {
			out.tagDecoded++
		}
		if res.Result.ResponseOK {
			out.responseOK++
		}
		out.attempts += res.Result.Attempts
	}
	return out
}

// TestChaosZeroIntensityRecoversCleanUplink pins the recovery property at
// the uplink layer: Scaled(0) must decode the exact same bits as no
// schedule, for every profile.
func TestChaosZeroIntensityRecoversCleanUplink(t *testing.T) {
	clean, err := core.RunUplinkTrial(cleanUplinkSpec(nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range faults.ProfileNames() {
		t.Run(name, func(t *testing.T) {
			sched, err := faults.Profile(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.RunUplinkTrial(cleanUplinkSpec(sched.Scaled(0)))
			if err != nil {
				t.Fatal(err)
			}
			if res.BitErrors != clean.BitErrors || res.Detected != clean.Detected {
				t.Fatalf("zero-intensity %s: errors=%d detected=%v, clean run has errors=%d detected=%v",
					name, res.BitErrors, res.Detected, clean.BitErrors, clean.Detected)
			}
			for i, b := range res.Result.Payload {
				if b != clean.Result.Payload[i] {
					t.Fatalf("zero-intensity %s: decoded bit %d differs from the clean run", name, i)
				}
			}
		})
	}
}

func cleanUplinkSpec(sched *faults.Schedule) core.UplinkTrialSpec {
	return core.UplinkTrialSpec{
		Config: core.Config{
			Seed:              chaosSeed + 99,
			TagReaderDistance: units.Centimeters(35),
			Faults:            sched,
		},
		BitRate:                250,
		HelperPacketsPerSecond: 1000,
		PayloadLen:             60,
		Mode:                   uplink.StreamCSI,
	}
}

// TestChaosZeroIntensityRecoversCleanTransaction pins recovery at the
// transaction layer: query decode, response, attempts, and data must all
// match the clean run exactly.
func TestChaosZeroIntensityRecoversCleanTransaction(t *testing.T) {
	clean := runTxns(t, nil, 1)
	for _, name := range faults.ProfileNames() {
		t.Run(name, func(t *testing.T) {
			sched, err := faults.Profile(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			got := runTxns(t, sched.Scaled(0), 1)
			if got != clean {
				t.Fatalf("zero-intensity %s transaction: %+v, clean run %+v", name, got, clean)
			}
		})
	}
}

// TestChaosUplinkDegradesMonotonically sweeps every profile over the
// intensity ladder at the uplink layer: summed bit errors must not
// meaningfully decrease as intensity rises.
func TestChaosUplinkDegradesMonotonically(t *testing.T) {
	// Two tolerances absorb sampling noise: a few absolute bits, plus a
	// multiplicative margin between nonzero intensities — different
	// intensities consume the injector stream differently, and heavier
	// corruption is sometimes easier for the decoder's sub-channel
	// selection to exclude, so only the trend is guaranteed.
	const slack = 3
	const trend = 0.7
	const trials = 4
	for _, name := range faults.ProfileNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sched, err := faults.Profile(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			ladder := []float64{0, 0.5, 1}
			errs := make([]int, len(ladder))
			for i, f := range ladder {
				errs[i] = uplinkErrors(t, sched.Scaled(f), trials)
			}
			for i := 1; i < len(errs); i++ {
				if float64(errs[i])+slack < trend*float64(errs[i-1]) {
					t.Errorf("%s: bit errors improved with intensity: %v over ladder %v",
						name, errs, ladder)
				}
			}
			if errs[len(errs)-1]+slack < errs[0] {
				t.Errorf("%s: full intensity beat the clean channel: %v over ladder %v",
					name, errs, ladder)
			}
		})
	}
}

// TestChaosTransactionDegradesMonotonically sweeps every profile at full
// intensity through complete transactions: neither the downlink decode
// count nor the end-to-end success count may exceed the clean channel's,
// and the retry budget must absorb at least as many attempts.
func TestChaosTransactionDegradesMonotonically(t *testing.T) {
	const trials = 2
	clean := runTxns(t, nil, trials)
	if clean.responseOK != trials {
		t.Fatalf("clean channel failed %d/%d transactions; pick a tamer operating point",
			trials-clean.responseOK, trials)
	}
	for _, name := range faults.ProfileNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sched, err := faults.Profile(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			got := runTxns(t, sched, trials)
			if got.tagDecoded > clean.tagDecoded {
				t.Errorf("%s: downlink decodes rose under faults: %d > %d",
					name, got.tagDecoded, clean.tagDecoded)
			}
			if got.responseOK > clean.responseOK {
				t.Errorf("%s: transaction successes rose under faults: %d > %d",
					name, got.responseOK, clean.responseOK)
			}
			if got.attempts < clean.attempts {
				t.Errorf("%s: faulted run used fewer attempts than clean: %d < %d",
					name, got.attempts, clean.attempts)
			}
		})
	}
}

// TestChaosStallDelaysHelperTraffic checks the stall impairment at the
// medium layer directly: helper frames must not be delivered inside a
// full-intensity stall window, while the reader keeps transmitting.
func TestChaosStallDelaysHelperTraffic(t *testing.T) {
	sched := &faults.Schedule{Windows: []faults.Window{
		{Kind: faults.Stall, Start: 0.5, End: 1.0, Intensity: 1},
	}}
	sys, err := core.NewSystem(core.Config{Seed: chaosSeed + 7, Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	inStall := 0
	sys.Medium.AddListener(func(tx wifi.Transmission) {
		if tx.Station == sys.Helper && tx.Start >= 0.5 && tx.Start < 1.0 {
			inStall++
		}
	})
	if err := (&wifi.CBRSource{
		Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 0.002,
	}).Start(); err != nil {
		t.Fatal(err)
	}
	sys.Run(1.5)
	if inStall > 0 {
		t.Errorf("%d helper frames transmitted inside a full-intensity stall window", inStall)
	}
}
