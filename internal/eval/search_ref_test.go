package eval

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/uplink"
)

// The exactness oracle for the achievable-rate and code-length searches:
// the exhaustive grid that ran every (trial, rate) cell and took the
// maximum qualifying rate, and the fig12, fig16 and fig20 bodies that used
// it or searched one distance at a time, kept verbatim (renamed with a ref
// prefix). refAmbientTraffic (network_ref_test.go) is fig15's. The
// top-down searches must render the same tables
// (TestRateSearchMatchesReference, search_match_test.go).

// refAchievableRate follows the paper's §7.2 methodology: each trial's
// achievable rate is the highest tested rate that decodes with BER < 1e-2
// in that trial, and the reported value is the mean across trials ("We
// compute the average achievable bit rate by taking the mean of the
// achievable bit rates across multiple runs"). Zero errors qualifies
// regardless of the trial's bit count. The (trial, rate) grid fans out
// across eng; run must be safe for concurrent calls.
func refAchievableRate(eng *parallel.Engine, rates []float64, run func(rate float64, trial int) (errs, bits int, err error), trials int) (float64, error) {
	if trials <= 0 {
		trials = 1
	}
	qualifies, err := parallel.Map(eng, trials*len(rates), func(i int) (bool, error) {
		trial, rate := i/len(rates), rates[i%len(rates)]
		e, b, err := run(rate, trial)
		if err != nil {
			return false, err
		}
		return b > 0 && float64(e)/float64(b) < 1e-2, nil
	})
	if err != nil {
		return 0, err
	}
	var sum float64
	for trial := 0; trial < trials; trial++ {
		best := 0.0
		for ri, rate := range rates {
			if qualifies[trial*len(rates)+ri] && rate > best {
				best = rate
			}
		}
		sum += best
	}
	return sum / float64(trials), nil
}

// refRateVsHelperRate reproduces Fig. 12: the achievable uplink bit rate (max
// tested rate with BER < 1e-2 at 5 cm) as a function of the helper's
// transmission rate.
func refRateVsHelperRate(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		Title: "Figure 12: achievable uplink bit rate vs helper transmission rate",
		Note: "paper: ~100 bps at 500 pkt/s rising to ~1 kbps at ~3070 pkt/s " +
			"(tag 5 cm from reader)",
		Columns: []string{"helper pkt/s", "achievable bit rate"},
	}
	eng := opt.engine()
	for _, hr := range Fig12HelperRates {
		rate, err := refAchievableRate(eng, StandardUplinkRates, func(rate float64, trial int) (int, int, error) {
			res, err := core.RunUplinkTrial(core.UplinkTrialSpec{
				Config: core.Config{
					Seed:   opt.Seed + int64(trial)*3001 + int64(hr) + int64(rate),
					Faults: opt.Faults,
				},
				BitRate:                rate,
				HelperPacketsPerSecond: hr,
				PayloadLen:             opt.PayloadLen,
				Mode:                   uplink.StreamCSI,
			})
			if err != nil {
				return 0, 0, err
			}
			return res.BitErrors, opt.PayloadLen, nil
		}, opt.Trials)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.0f", hr), fmt.Sprintf("%.0f bps", rate))
	}
	return t, nil
}

// refBeaconOnly reproduces Fig. 16: achievable uplink rate when the reader
// uses only the AP's periodic beacons, decoded from RSSI (the Intel cards
// do not expose CSI for beacons).
func refBeaconOnly(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	payload := opt.PayloadLen
	if payload > 30 {
		payload = 30 // low rates: keep each trial's duration bounded
	}
	t := &Table{
		Title: "Figure 16: achievable rate using only AP beacons (RSSI decoding)",
		Note: "paper: rate grows with beacon frequency, to ~45 bps at " +
			"70 beacons/s — the uplink needs no data traffic at all",
		Columns: []string{"beacons/s", "achievable bit rate"},
	}
	eng := opt.engine()
	for _, br := range []float64{10, 20, 30, 40, 50, 70} {
		rate, err := refAchievableRate(eng, BeaconRatesTested, func(rate float64, trial int) (int, int, error) {
			if rate > br/1.4 {
				// Fewer than ~1.4 beacons per bit cannot carry a bit.
				return payload, payload, nil
			}
			res, err := core.RunUplinkTrial(core.UplinkTrialSpec{
				Config: core.Config{
					Seed:   opt.Seed + int64(trial)*7001 + int64(br)*3 + int64(rate),
					Faults: opt.Faults,
				},
				BitRate:                rate,
				HelperPacketsPerSecond: br,
				PayloadLen:             payload,
				Mode:                   uplink.StreamRSSI,
				UseBeacons:             true,
			})
			if err != nil {
				return 0, 0, err
			}
			return res.BitErrors, payload, nil
		}, opt.Trials)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.0f", br), fmt.Sprintf("%.0f bps", rate))
	}
	return t, nil
}

// refCorrelationRange reproduces Fig. 20: the minimum code (correlation)
// length that achieves BER < 1e-2 at each distance, using the §3.4 coded
// uplink at 2 helper packets per chip.
func refCorrelationRange(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	payload := opt.PayloadLen
	if payload > 24 {
		payload = 24 // coded frames grow as payload·L; keep runs bounded
	}
	t := &Table{
		Title: "Figure 20: correlation length needed vs distance",
		Note: "paper: length ~20 reaches ~1.6 m and ~150 reaches ~2.1 m; " +
			"required length grows steeply with distance",
		Columns: []string{"distance", "min code length (BER < 1e-2)"},
	}
	eng := opt.engine()
	for _, cm := range Fig20Distances {
		found := 0
		// The code-length search keeps its serial early exit (the next
		// length only runs when the previous one failed); the trials
		// within each length fan out.
		for _, L := range Fig20CodeLengths {
			errsPer, err := parallel.Map(eng, opt.Trials, func(trial int) (int, error) {
				res, err := core.RunLongRangeTrial(core.UplinkTrialSpec{
					Config: core.Config{
						Seed:              opt.Seed + int64(trial)*4001 + int64(cm)*3 + int64(L),
						TagReaderDistance: units.Centimeters(cm),
						Faults:            opt.Faults,
					},
					BitRate:                500, // chip rate: 2 packets per chip
					HelperPacketsPerSecond: helperRate,
					PayloadLen:             payload,
				}, L)
				if err != nil {
					return 0, err
				}
				return res.BitErrors, nil
			})
			if err != nil {
				return nil, err
			}
			errs, bits := 0, 0
			for _, e := range errsPer {
				errs += e
				bits += payload
			}
			if float64(errs)/float64(bits) < 1e-2 {
				found = L
				break
			}
		}
		cell := "> 150"
		if found > 0 {
			cell = fmt.Sprintf("%d", found)
		}
		t.AddRow(fmt.Sprintf("%.0f cm", cm), cell)
	}
	return t, nil
}

// synthCell is one synthetic (point, trial, rate) outcome.
type synthCell struct {
	errs, bits int
	fail       bool
}

// synthSweep draws a random outcome for every (point, trial, rate) cell:
// each qualifies independently, so a trial's pattern is as often
// non-monotone in the rate as not, and with withErrors a cell may fail
// outright.
func synthSweep(seed int64, points, trials, rates int, withErrors bool) []synthCell {
	r := rng.New(seed)
	cells := make([]synthCell, points*trials*rates)
	for i := range cells {
		switch r.Intn(3) {
		case 0:
			cells[i] = synthCell{errs: 0, bits: 100} // qualifies
		case 1:
			cells[i] = synthCell{errs: 5, bits: 100} // BER 5e-2
		default:
			cells[i] = synthCell{} // no bits: never qualifies
		}
		cells[i].fail = withErrors && r.Intn(6) == 0
	}
	return cells
}

// TestRateSearchWorkerInvariance drives the top-down search with random
// synthetic sweeps at random point, trial and worker counts. Where no
// error surfaces it must equal the exhaustive oracle run on the same
// cells with every failure read as a non-qualifying result, and a cell's
// error must surface exactly when the search reaches it: when it sits at
// or above its chain's first qualifying rate. The error is the first one
// in chain order.
func TestRateSearchWorkerInvariance(t *testing.T) {
	rates := []float64{25, 100, 200, 500, 1000}
	f := func(seed int64, pointsRaw, trialsRaw, workersRaw uint8, withErrors bool) bool {
		points := 1 + int(pointsRaw)%4
		trials := 1 + int(trialsRaw)%5
		workers := 1 + int(workersRaw)%8
		cells := synthSweep(seed, points, trials, len(rates), withErrors)
		cell := func(point, trial int, rate float64) synthCell {
			return cells[(point*trials+trial)*len(rates)+slices.Index(rates, rate)]
		}
		cellErr := func(point, trial int, rate float64) error {
			return fmt.Errorf("point %d trial %d rate %v failed", point, trial, rate)
		}
		got, err := achievableRates(parallel.New(workers), points, trials, rates,
			func(point, trial int, rate float64) (int, int, error) {
				c := cell(point, trial, rate)
				if c.fail {
					return 0, 0, cellErr(point, trial, rate)
				}
				return c.errs, c.bits, nil
			})

		var wantErr error
	chains:
		for c := 0; c < points*trials; c++ {
			point, trial := c/trials, c%trials
			for ri := len(rates) - 1; ri >= 0; ri-- {
				cl := cell(point, trial, rates[ri])
				if cl.fail {
					wantErr = cellErr(point, trial, rates[ri])
					break chains
				}
				if cl.bits > 0 && cl.errs == 0 {
					break
				}
			}
		}
		if wantErr != nil || err != nil {
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				t.Logf("seed %d: error %v, want %v", seed, err, wantErr)
				return false
			}
			return true
		}
		for point := 0; point < points; point++ {
			want, werr := refAchievableRate(parallel.New(1), rates, func(rate float64, trial int) (int, int, error) {
				c := cell(point, trial, rate)
				if c.fail {
					return 5, 100, nil
				}
				return c.errs, c.bits, nil
			}, trials)
			if werr != nil || got[point] != want {
				t.Logf("seed %d point %d: search %v, oracle %v (%v)", seed, point, got[point], want, werr)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRateSearchSkipsLowerRates counts the search's runs: every chain runs
// each rate from the highest down to its first qualifying rate exactly
// once, and no rate below it.
func TestRateSearchSkipsLowerRates(t *testing.T) {
	rates := []float64{25, 100, 200, 500, 1000}
	const points, trials = 3, 4
	for _, workers := range []int{1, 2, 8} {
		for seed := int64(1); seed <= 20; seed++ {
			cells := synthSweep(seed, points, trials, len(rates), false)
			var mu sync.Mutex
			runs := make([]int, len(cells))
			_, err := achievableRates(parallel.New(workers), points, trials, rates,
				func(point, trial int, rate float64) (int, int, error) {
					i := (point*trials+trial)*len(rates) + slices.Index(rates, rate)
					mu.Lock()
					runs[i]++
					mu.Unlock()
					return cells[i].errs, cells[i].bits, nil
				})
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < points*trials; c++ {
				lowest := 0 // the chain's first qualifying rate, or the bottom
				for ri := len(rates) - 1; ri >= 0; ri-- {
					if cl := cells[c*len(rates)+ri]; cl.bits > 0 && cl.errs == 0 {
						lowest = ri
						break
					}
				}
				for ri := range rates {
					want := 0
					if ri >= lowest {
						want = 1
					}
					if got := runs[c*len(rates)+ri]; got != want {
						t.Fatalf("workers %d seed %d chain %d: rate %v ran %d times, want %d",
							workers, seed, c, rates[ri], got, want)
					}
				}
			}
		}
	}
}
