package eval

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/faults"
	"repro/internal/parallel"
	"repro/internal/tag"
	"repro/internal/units"
	"repro/internal/uplink"
	"repro/internal/wifi"
)

// StreamEquivalence validates the streaming refactor at system scale: each
// trial runs one simulation whose stream decodes online through
// core.System.StreamTo (the incremental path, the one every other
// experiment runs) while an OnMeasurement hook records a copy of every
// capture the batch decode reads (recordFrame), and then batch-decodes
// that recorded series (the materialized path), comparing the decoded
// payloads bit for bit. The table reports zero mismatches at every
// operating point for both CSI and RSSI modes — the system-level form of
// the stream/batch equivalence property the unit tests pin with DeepEqual.
//
// Fault schedules are deliberately not applied here: decode-time fault
// draws would interleave differently between a mid-simulation decode and
// a post-simulation one, which is a property of the injector's stream,
// not of the decoder.
func StreamEquivalence(opt Options) (*Table, error) {
	opt = opt.withDefaults()
	t := &Table{
		Title: "Streaming decode: live (incremental) vs batch equivalence",
		Note: "the StreamDecoder is the only decode implementation; a live session " +
			"pushing measurements during the simulation must reproduce the batch " +
			"decode of the full trace exactly, at every distance and in both modes",
		Columns: []string{"distance", "mode", "trials", "bits compared", "mismatches", "identical"},
	}
	points := streamPoints()
	type outcome struct {
		mismatches int
		liveErrs   int // stream push/flush failures (must be 0)
	}
	results, err := parallel.Map(opt.engine(), len(points)*opt.Trials, func(i int) (outcome, error) {
		p := points[i/opt.Trials]
		trial := i % opt.Trials
		sys, mod, err := streamTrial(opt, p, trial, nil)
		if err != nil {
			return outcome{}, err
		}
		dec, err := sys.UplinkDecoder(streamBitRate)
		if err != nil {
			return outcome{}, err
		}
		sd, err := dec.NewStream(mod.Start(), opt.PayloadLen, p.mode)
		if err != nil {
			return outcome{}, err
		}
		sys.StreamTo(sd)
		// A streaming system keeps no series, and the hook's report is
		// overwritten by the next capture: record copies of the frame's
		// captures for the batch reference.
		var recorded csi.Series
		sys.OnMeasurement(recordFrame(&recorded, sd.Start(), sd.End()))
		sys.Run(mod.End() + 0.5)
		live, err := sd.Flush()
		if err != nil {
			return outcome{liveErrs: 1}, nil
		}
		var batch *uplink.Result
		if p.mode == uplink.StreamRSSI {
			batch, err = dec.DecodeRSSI(&recorded, mod.Start(), opt.PayloadLen)
		} else {
			batch, err = dec.DecodeCSI(&recorded, mod.Start(), opt.PayloadLen)
		}
		if err != nil {
			return outcome{}, fmt.Errorf("batch decode after a clean live decode: %w", err)
		}
		out := outcome{}
		for j := range batch.Payload {
			if live.Payload[j] != batch.Payload[j] {
				out.mismatches++
			}
		}
		if dec.Detected(live) != dec.Detected(batch) {
			out.mismatches++
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range points {
		mismatches, liveErrs := 0, 0
		for trial := 0; trial < opt.Trials; trial++ {
			o := results[pi*opt.Trials+trial]
			mismatches += o.mismatches
			liveErrs += o.liveErrs
		}
		bits := opt.Trials * opt.PayloadLen
		t.AddRow(
			fmt.Sprintf("%.0f cm", p.cm),
			p.mode.String(),
			fmt.Sprintf("%d", opt.Trials),
			fmt.Sprintf("%d", bits),
			fmt.Sprintf("%d", mismatches),
			fmt.Sprintf("%v", mismatches == 0 && liveErrs == 0),
		)
	}
	return t, nil
}

// streamBitRate is the stream experiment's tag bit rate, 33 bps (an
// integer constant).
const streamBitRate = helperRate / 30

// streamTrial builds the system of one trial at point p, with the helper's
// traffic started and the tag's frame armed at 1 s, and injects sched
// when it is non-nil (the experiment itself runs clean).
func streamTrial(opt Options, p streamPoint, trial int, sched *faults.Schedule) (*core.System, *tag.Modulator, error) {
	sys, err := core.NewSystem(core.Config{
		Seed:              opt.Seed + int64(trial)*5003 + int64(p.cm)*7 + int64(p.mode),
		TagReaderDistance: units.Centimeters(p.cm),
		Faults:            sched,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := (&wifi.CBRSource{
		Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 1.0 / helperRate,
	}).Start(); err != nil {
		return nil, nil, err
	}
	payload := core.RandomPayload(opt.PayloadLen, opt.Seed+int64(trial)*11+int64(p.cm))
	mod, err := sys.TransmitUplink(tag.FrameBits(payload), 1.0, streamBitRate)
	if err != nil {
		return nil, nil, err
	}
	return sys, mod, nil
}

// streamPoint is one operating point of the stream experiment.
type streamPoint struct {
	cm   float64
	mode uplink.StreamMode
}

// streamPoints lists the experiment's points: three distances, each in
// both modes.
func streamPoints() []streamPoint {
	var points []streamPoint
	for _, cm := range []float64{5, 30, 65} {
		for _, mode := range []uplink.StreamMode{uplink.StreamCSI, uplink.StreamRSSI} {
			points = append(points, streamPoint{cm, mode})
		}
	}
	return points
}

// recordFrame returns an OnMeasurement hook that appends to rec a copy of
// every capture a batch decode of the frame [start, end) reads: those from
// the frame start through the first one at or past the frame end. That
// last capture closes the reference frame on a push, as it does in the
// whole trace; no later capture changes the decode.
func recordFrame(rec *csi.Series, start, end float64) func(csi.Measurement) {
	closed := false
	return func(m csi.Measurement) {
		if closed || m.Timestamp < start {
			return
		}
		rec.Append(m.Clone())
		closed = m.Timestamp >= end
	}
}
