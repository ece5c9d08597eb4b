package eval

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/tag"
	"repro/internal/units"
	"repro/internal/uplink"
	"repro/internal/wifi"
)

// Options scales an experiment. Zero values take paper-scale defaults
// divided where noted; tests pass smaller values.
type Options struct {
	// Seed drives all randomness.
	Seed int64
	// Trials per point (the paper repeats 20 times per distance).
	Trials int
	// PayloadLen bits per trial (the paper transmits 90-bit payloads).
	PayloadLen int
	// Workers bounds the goroutines evaluating independent trials.
	// 0 uses GOMAXPROCS; 1 forces serial execution. Every trial builds
	// its own simulation from an explicit per-trial seed, so results are
	// bit-identical for every worker count.
	Workers int
	// Obs, when non-nil, accumulates every trial's metrics snapshot.
	// Each trial System owns its own registry (no cross-worker
	// contention); snapshots are merged into Obs on the calling
	// goroutine in trial-index order, so the aggregate is identical for
	// every worker count.
	Obs *obs.Registry
	// Faults, when non-nil, applies the fault schedule to every trial
	// system (see internal/faults). Each trial derives its injector
	// stream from its own seed, so worker invariance is preserved.
	Faults *faults.Schedule
}

func (o Options) withDefaults() Options {
	if o.Trials <= 0 {
		o.Trials = 20
	}
	if o.PayloadLen <= 0 {
		o.PayloadLen = 90
	}
	return o
}

// engine returns the trial-evaluation engine for the options' worker
// count.
func (o Options) engine() *parallel.Engine { return parallel.New(o.Workers) }

// Fig10Distances are the tag-reader separations swept in Fig. 10.
var Fig10Distances = []float64{5, 15, 25, 35, 45, 55, 65}

// Fig10PacketsPerBit are the measurement densities plotted in Fig. 10.
var Fig10PacketsPerBit = []float64{30, 6, 3}

// helperRate is the injection rate used for the distance sweeps (§7.1
// injects traffic; we fix 1000 pkt/s so packets/bit maps to bit rate).
const helperRate = 1000

// UplinkBERvsDistance reproduces Fig. 10(a) (CSI) or Fig. 10(b) (RSSI):
// BER at each distance for 30, 6, and 3 packets per bit.
func UplinkBERvsDistance(mode uplink.StreamMode, opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		Title: fmt.Sprintf("Figure 10%s: uplink BER vs distance (%s)", figSuffix(mode), strings.ToUpper(mode.String())),
		Note: "paper: BER < 1e-2 up to ~65 cm (CSI) and ~30 cm (RSSI) at 30 pkts/bit; " +
			"BER rises with distance and falls with packets/bit",
		Columns: []string{"distance", "30 pkt/bit", "6 pkt/bit", "3 pkt/bit"},
	}
	// Every (distance, density, trial) cell is independent: fan the full
	// grid across the engine, then fold the per-trial errors back in grid
	// order so the table matches the serial loop exactly.
	type job struct {
		cm, ppb float64
	}
	var jobs []job
	for _, cm := range Fig10Distances {
		for _, ppb := range Fig10PacketsPerBit {
			for trial := 0; trial < opt.Trials; trial++ {
				jobs = append(jobs, job{cm, ppb})
			}
		}
	}
	type cell struct {
		errs int
		snap *obs.Snapshot
	}
	var cells []cell
	err := parallel.Fold(opt.engine(), len(jobs), func(i int) (cell, error) {
		j := jobs[i]
		trial := i % opt.Trials
		res, err := core.RunUplinkTrial(core.UplinkTrialSpec{
			Config: core.Config{
				Seed:              opt.Seed + int64(trial)*1009 + int64(j.cm)*13 + int64(j.ppb),
				TagReaderDistance: units.Centimeters(j.cm),
				Faults:            opt.Faults,
			},
			BitRate:                helperRate / j.ppb,
			HelperPacketsPerSecond: helperRate,
			PayloadLen:             opt.PayloadLen,
			Mode:                   mode,
		})
		if err != nil {
			return cell{}, err
		}
		return cell{res.BitErrors, res.Metrics}, nil
	}, func(c cell) error {
		opt.Obs.Merge(c.snap)
		cells = append(cells, c)
		return nil
	})
	if err != nil {
		return nil, err
	}
	errsPer := make([]int, len(cells))
	for i, c := range cells {
		errsPer[i] = c.errs
	}
	idx := 0
	for _, cm := range Fig10Distances {
		row := []string{fmt.Sprintf("%.0f cm", cm)}
		for range Fig10PacketsPerBit {
			errs, bits := 0, 0
			for trial := 0; trial < opt.Trials; trial++ {
				errs += errsPer[idx]
				bits += opt.PayloadLen
				idx++
			}
			row = append(row, fmtBER(errs, bits))
		}
		t.AddRow(row...)
	}
	return t, nil
}

func figSuffix(mode uplink.StreamMode) string {
	if mode == uplink.StreamRSSI {
		return "b"
	}
	return "a"
}

// FrequencyDiversity reproduces Fig. 11: the full diversity-combining
// decoder against decoding from one randomly chosen sub-channel, at 30
// packets per bit.
func FrequencyDiversity(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		Title: "Figure 11: effect of frequency diversity on BER (30 pkt/bit)",
		Note: "paper: a random sub-channel fails beyond ~15 cm; " +
			"combining across sub-channels extends reliable decoding to ~65 cm",
		Columns: []string{"distance", "our algorithm", "random sub-channel"},
	}
	type pair struct {
		our, rnd int
		snaps    [2]*obs.Snapshot
	}
	results, err := parallel.Map(opt.engine(), len(Fig10Distances)*opt.Trials,
		func(i int) (pair, error) {
			cm := Fig10Distances[i/opt.Trials]
			trial := i % opt.Trials
			spec := core.UplinkTrialSpec{
				Config: core.Config{
					Seed:              opt.Seed + int64(trial)*2003 + int64(cm)*17,
					TagReaderDistance: units.Centimeters(cm),
					Faults:            opt.Faults,
				},
				BitRate:                helperRate / 30,
				HelperPacketsPerSecond: helperRate,
				PayloadLen:             opt.PayloadLen,
				Mode:                   uplink.StreamCSI,
			}
			full, err := core.RunUplinkTrial(spec)
			if err != nil {
				return pair{}, err
			}
			// A random (antenna, sub-channel) pair, varied by trial.
			ant := int(opt.Seed+int64(trial)) % 3
			if ant < 0 {
				ant = -ant
			}
			sub := (trial*7 + int(cm)) % 30
			single, err := core.RunSingleChannelTrial(spec, ant, sub)
			if err != nil {
				return pair{}, err
			}
			return pair{
				our: full.BitErrors, rnd: single.BitErrors,
				snaps: [2]*obs.Snapshot{full.Metrics, single.Metrics},
			}, nil
		})
	if err != nil {
		return nil, err
	}
	for _, p := range results {
		opt.Obs.Merge(p.snaps[0])
		opt.Obs.Merge(p.snaps[1])
	}
	for di, cm := range Fig10Distances {
		var ourErrs, ourBits, rndErrs, rndBits int
		for trial := 0; trial < opt.Trials; trial++ {
			p := results[di*opt.Trials+trial]
			ourErrs += p.our
			ourBits += opt.PayloadLen
			rndErrs += p.rnd
			rndBits += opt.PayloadLen
		}
		t.AddRow(fmt.Sprintf("%.0f cm", cm), fmtBER(ourErrs, ourBits), fmtBER(rndErrs, rndBits))
	}
	return t, nil
}

// StandardUplinkRates are the bit rates the evaluation tests (§7.2).
var StandardUplinkRates = []float64{100, 200, 500, 1000}

// firstQualifying runs chains independent searches at once, fanned out
// across eng. Chain c tries steps 0, 1, ... in order and stops at the
// first step s for which try(c, s) reports true; out[c] is that s, or -1
// when no step qualifies. The steps after it never run, so a chain costs
// only what its answer needs. A chain's first error ends it, and the
// error returned is the lowest-indexed failing chain's. try must be safe
// for concurrent calls on distinct chains.
func firstQualifying(eng *parallel.Engine, chains, steps int, try func(chain, step int) (bool, error)) ([]int, error) {
	return parallel.Map(eng, chains, func(c int) (int, error) {
		for s := 0; s < steps; s++ {
			ok, err := try(c, s)
			if err != nil || ok {
				return s, err
			}
		}
		return -1, nil
	})
}

// achievableRates follows the paper's §7.2 methodology at each of points
// sweep points: a trial's achievable rate is the highest tested rate that
// decodes with BER < 1e-2 in that trial, and the point's value is the mean
// across trials ("We compute the average achievable bit rate by taking the
// mean of the achievable bit rates across multiple runs"). Zero errors
// qualifies regardless of the trial's bit count. Every (point, trial) is
// one firstQualifying chain that tries the rates from the highest down,
// so the first rate that qualifies is the maximum, and a lower rate,
// whose frame is longer, runs only when every rate above it failed.
// run(point, trial, rate) must be safe for concurrent calls; its errors
// surface only from the rates a chain tries.
func achievableRates(eng *parallel.Engine, points, trials int, rates []float64, run func(point, trial int, rate float64) (errs, bits int, err error)) ([]float64, error) {
	if trials <= 0 {
		trials = 1
	}
	desc := slices.Clone(rates)
	slices.Sort(desc)
	slices.Reverse(desc)
	first, err := firstQualifying(eng, points*trials, len(desc), func(c, s int) (bool, error) {
		e, b, err := run(c/trials, c%trials, desc[s])
		if err != nil {
			return false, err
		}
		return b > 0 && float64(e)/float64(b) < 1e-2, nil
	})
	if err != nil {
		return nil, err
	}
	means := make([]float64, points)
	for p := range means {
		var sum float64
		for trial := 0; trial < trials; trial++ {
			best := 0.0
			if s := first[p*trials+trial]; s >= 0 {
				best = desc[s]
			}
			sum += best
		}
		means[p] = sum / float64(trials)
	}
	return means, nil
}

// Fig12HelperRates are the helper packet rates swept in Fig. 12.
var Fig12HelperRates = []float64{240, 500, 1000, 1500, 2070, 2500, 3070}

// RateVsHelperRate reproduces Fig. 12: the achievable uplink bit rate (max
// tested rate with BER < 1e-2 at 5 cm) as a function of the helper's
// transmission rate.
func RateVsHelperRate(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		Title: "Figure 12: achievable uplink bit rate vs helper transmission rate",
		Note: "paper: ~100 bps at 500 pkt/s rising to ~1 kbps at ~3070 pkt/s " +
			"(tag 5 cm from reader)",
		Columns: []string{"helper pkt/s", "achievable bit rate"},
	}
	rates, err := achievableRates(opt.engine(), len(Fig12HelperRates), opt.Trials, StandardUplinkRates,
		func(point, trial int, rate float64) (int, int, error) {
			hr := Fig12HelperRates[point]
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
		})
	if err != nil {
		return nil, err
	}
	for i, hr := range Fig12HelperRates {
		t.AddRow(fmt.Sprintf("%.0f", hr), fmt.Sprintf("%.0f bps", rates[i]))
	}
	return t, nil
}

// Fig20Distances are the long-range sweep distances in cm.
var Fig20Distances = []float64{80, 100, 120, 140, 160, 180, 200, 220}

// Fig20CodeLengths are the candidate correlation lengths.
var Fig20CodeLengths = []int{6, 10, 16, 20, 30, 50, 76, 100, 150}

// CorrelationRange reproduces Fig. 20: the minimum code (correlation)
// length that achieves BER < 1e-2 at each distance, using the §3.4 coded
// uplink at 2 helper packets per chip.
func CorrelationRange(opt Options) (*Table, error) {
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
	// Each distance is one chain over the code lengths, shortest first:
	// a length runs all its trials, and the next length runs only when
	// this one failed.
	first, err := firstQualifying(opt.engine(), len(Fig20Distances), len(Fig20CodeLengths), func(c, s int) (bool, error) {
		cm, L := Fig20Distances[c], Fig20CodeLengths[s]
		errs, bits := 0, 0
		for trial := 0; trial < opt.Trials; trial++ {
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
				return false, err
			}
			errs += res.BitErrors
			bits += payload
		}
		return float64(errs)/float64(bits) < 1e-2, nil
	})
	if err != nil {
		return nil, err
	}
	for i, cm := range Fig20Distances {
		cell := "> 150"
		if s := first[i]; s >= 0 {
			cell = fmt.Sprintf("%d", Fig20CodeLengths[s])
		}
		t.AddRow(fmt.Sprintf("%.0f cm", cm), cell)
	}
	return t, nil
}

// RawCSITrace reproduces Fig. 3 (5 cm) and Fig. 6 (1 m): the raw CSI
// amplitude of one good sub-channel while the tag transmits alternating
// bits. It returns the trace and a table summarizing the two level
// clusters.
func RawCSITrace(distance units.Meters, packets int, seed int64) ([]float64, *Table, error) {
	if packets <= 0 {
		packets = 3000
	}
	sys, err := core.NewSystem(core.Config{Seed: seed, TagReaderDistance: distance})
	if err != nil {
		return nil, nil, err
	}
	if err := (&wifi.CBRSource{
		Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 1.0 / helperRate,
	}).Start(); err != nil {
		return nil, nil, err
	}
	payload := make([]bool, packets/10)
	for i := range payload {
		payload[i] = i%2 == 0
	}
	// Frame the alternating payload so the decoder's preamble-based
	// channel ranking applies, exactly as in a real transmission.
	mod, err := sys.TransmitUplink(tag.FrameBits(payload), 1.0, helperRate/10) // 10 packets per bit
	if err != nil {
		return nil, nil, err
	}
	sys.Run(mod.End() + 0.5)
	dec, err := sys.UplinkDecoder(helperRate / 10)
	if err != nil {
		return nil, nil, err
	}
	res, err := dec.DecodeCSI(sys.Series(), mod.Start(), len(payload))
	if err != nil {
		return nil, nil, err
	}
	best := res.Good[0]
	if best.Subchannel < 0 {
		best.Subchannel = 0
	}
	trace, err := sys.Series().CSIChannel(best.Antenna, best.Subchannel)
	if err != nil {
		return nil, nil, err
	}
	if len(trace) > packets {
		trace = trace[:packets]
	}
	// Split samples by the transmitted state to characterize the levels.
	ts := sys.Series().Timestamps()
	var lo, hi []float64
	for i := range trace {
		if !mod.Active(ts[i]) {
			continue
		}
		if mod.StateAt(ts[i]) {
			hi = append(hi, trace[i])
		} else {
			lo = append(lo, trace[i])
		}
	}
	t := &Table{
		Title: fmt.Sprintf("Figure %s: raw CSI trace, tag at %v", figNumForDistance(distance), distance),
		Note: "paper: two distinct levels at 5 cm (Fig. 3); " +
			"levels merge at ~1 m and beyond (Fig. 6)",
		Columns: []string{"metric", "value"},
	}
	loMean, hiMean := mean(lo), mean(hi)
	sep := 0.0
	if s := (stddev(lo) + stddev(hi)) / 2; s > 0 {
		sep = abs(hiMean-loMean) / s
	}
	t.AddRow("sub-channel", best.String())
	t.AddRow("mean level (absorbing)", fmt.Sprintf("%.3f", loMean))
	t.AddRow("mean level (reflecting)", fmt.Sprintf("%.3f", hiMean))
	t.AddRow("level separation (σ units)", fmt.Sprintf("%.2f", sep))
	t.AddRow("distinct levels", fmt.Sprintf("%v", sep > 2))
	return trace, t, nil
}

func figNumForDistance(d units.Meters) string {
	if d <= 0.1 {
		return "3"
	}
	return "6"
}

// NormalizedPDF reproduces Fig. 4: the PDF of normalized (conditioned)
// channel values across the 30 sub-channels of antenna 0 with the tag at
// 5 cm. It reports how many sub-channels show the two Gaussian lobes at
// ±1 and the per-sub-channel noise spread.
func NormalizedPDF(packets int, seed int64) (*Table, error) {
	if packets <= 0 {
		packets = 42000
	}
	sys, err := core.NewSystem(core.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	if err := (&wifi.CBRSource{
		Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 1.0 / helperRate,
	}).Start(); err != nil {
		return nil, err
	}
	payload := make([]bool, packets/10)
	for i := range payload {
		payload[i] = i%2 == 0
	}
	mod, err := sys.TransmitUplink(tag.FrameBits(payload), 1.0, helperRate/10)
	if err != nil {
		return nil, err
	}
	sys.Run(mod.End() + 0.5)
	dec, err := sys.UplinkDecoder(helperRate / 10)
	if err != nil {
		return nil, err
	}
	bimodal := 0
	var spreads []float64
	for k := 0; k < sys.Series().Subchannels(); k++ {
		cond, err := dec.NormalizedChannel(sys.Series(), 0, k)
		if err != nil {
			return nil, err
		}
		if isBimodalAroundUnit(cond) {
			bimodal++
		}
		spreads = append(spreads, stddev(cond))
	}
	sort.Float64s(spreads)
	t := &Table{
		Title: "Figure 4: PDF of normalized channel values (30 sub-channels, tag at 5 cm)",
		Note: "paper: ~30% of sub-channels show two Gaussians at ±1; noise varies " +
			"significantly across sub-channels; some show no separation",
		Columns: []string{"metric", "value"},
	}
	t.AddRow("sub-channels with ±1 lobes", fmt.Sprintf("%d / 30", bimodal))
	t.AddRow("fraction bimodal", fmt.Sprintf("%.0f%%", float64(bimodal)/30*100))
	t.Note += "; the simulated 5 cm link is cleaner than the hardware's, so " +
		"more sub-channels separate here — the diversity structure (spread " +
		"varying across sub-channels) is the reproduced claim"
	t.AddRow("spread (min)", fmt.Sprintf("%.2f", spreads[0]))
	t.AddRow("spread (median)", fmt.Sprintf("%.2f", spreads[len(spreads)/2]))
	t.AddRow("spread (max)", fmt.Sprintf("%.2f", spreads[len(spreads)-1]))
	return t, nil
}

// isBimodalAroundUnit checks for density lobes near -1 and +1.
func isBimodalAroundUnit(xs []float64) bool {
	var nearLo, nearHi, center int
	for _, x := range xs {
		switch {
		case x > -1.5 && x < -0.5:
			nearLo++
		case x > 0.5 && x < 1.5:
			nearHi++
		case x > -0.25 && x < 0.25:
			center++
		}
	}
	n := len(xs)
	if n == 0 {
		return false
	}
	// Both lobes populated and the valley between them sparse.
	return nearLo > n/8 && nearHi > n/8 && center < (nearLo+nearHi)/2
}

// GoodSubchannels reproduces Fig. 5: for each distance, which sub-channels
// decode with BER < 1e-2 on their own. One simulation per distance; every
// sub-channel of antenna 0 is decoded from the same frame, one
// single-channel stream each.
func GoodSubchannels(opt Options) (*Table, error) {
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
		dec, err := sys.UplinkDecoder(helperRate / 30)
		if err != nil {
			return nil, err
		}
		streams := make([]*uplink.StreamDecoder, sys.Channel.Subchannels())
		for k := range streams {
			if streams[k], err = dec.NewSingleChannelStream(mod.Start(), payload, 0, k); err != nil {
				return nil, err
			}
			streams[k].DecodeAtFlush()
			sys.StreamTo(streams[k])
		}
		sys.Run(mod.End() + 0.5)
		var good []int
		for k, sd := range streams {
			res, err := sd.Flush()
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

func intsToString(xs []int) string {
	if len(xs) == 0 {
		return "-"
	}
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d", x)
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := mean(xs)
	var sum float64
	for _, x := range xs {
		sum += (x - m) * (x - m)
	}
	return math.Sqrt(sum / float64(len(xs)))
}

func abs(x float64) float64 { return math.Abs(x) }
