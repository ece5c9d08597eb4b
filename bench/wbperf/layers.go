package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/csi"
	"repro/internal/serve"
	"repro/internal/uplink"
)

// The layer phase of a traced run drives each layer alone, through its
// public functions, on the workload's own captures: the wire parser, a
// server with a timing sink and no TCP, a bare stream decoder, and the
// batch decoders. It runs on every workload, so every per-layer metric
// exists on every workload; README says where each should move.

// layerTotals are the layer phase's counts besides its spans.
type layerTotals struct {
	lines, bytes int64 // wire lines and bytes parsed
	stats        serve.Stats
}

// runLayers cycles through the captures for the budget (at least once).
func runLayers(e *env, in *inputs, budget time.Duration, tr *tracer) (*outcome, *layerTotals, error) {
	o := &outcome{}
	tot := &layerTotals{}
	srv := serve.NewServer(serveConfig(e.now))
	mix := newMixRunner(in)
	perCap := len(mix.calls) / len(in.caps)
	scratch := newMeasurement(in.caps[0].params)
	end := e.now().Add(budget)
	for cycle := 0; cycle == 0 || e.now().Before(end); cycle++ {
		for ci, c := range in.caps {
			key := int64(cycle*len(in.caps) + ci)
			if cycle == 0 {
				o.count(checkParse(c, &scratch))
			}
			o.count(timeParse(c, &scratch, tr, key, tot))
			o.count(serveInProcess(srv, c, e.now, tr, mix.meter, key))
			o.count(streamAlone(c, e.now, tr, mix.meter, key))
			for i := ci * perCap; i < (ci+1)*perCap; i++ {
				o.count(mix.run(i, e.now, tr, 0))
			}
		}
	}
	if err := srv.Drain(); err != nil {
		return nil, nil, err
	}
	tot.stats = srv.Stats()
	return o, tot, nil
}

// newMeasurement returns a measurement shaped like p's sessions, for
// ParseMeasurement to fill.
func newMeasurement(p serve.SessionParams) csi.Measurement {
	m := csi.Measurement{RSSI: make([]float64, p.Antennas)}
	if p.Subchannels > 0 {
		m.CSI = make([][]float64, p.Antennas)
		for a := range m.CSI {
			m.CSI[a] = make([]float64, p.Subchannels)
		}
	}
	return m
}

// checkParse verifies that every wire line parses back to exactly the
// measurement it encodes.
func checkParse(c *capture, m *csi.Measurement) error {
	for i, want := range c.series.Measurements {
		if err := serve.ParseMeasurement(c.line(i), m); err != nil {
			return err
		}
		same := m.Timestamp == want.Timestamp && len(m.CSI) == len(want.CSI)
		for a := 0; same && a < len(m.RSSI); a++ {
			same = m.RSSI[a] == want.RSSI[a]
		}
		for a := 0; same && a < len(m.CSI); a++ {
			for k := 0; same && k < len(m.CSI[a]); k++ {
				same = m.CSI[a][k] == want.CSI[a][k]
			}
		}
		if !same {
			return fmt.Errorf("wire line %d of capture %d does not parse back to its measurement", i, c.seed)
		}
	}
	return nil
}

// timeParse parses every line of c in one serve.wire.parse span.
func timeParse(c *capture, m *csi.Measurement, tr *tracer, key int64, tot *layerTotals) error {
	sp := tr.begin("serve.wire.parse", 0, key)
	var first error
	for i := range c.lineEnd {
		if err := serve.ParseMeasurement(c.line(i), m); err != nil && first == nil {
			first = err
		}
	}
	tr.end(sp)
	tot.lines += int64(len(c.lineEnd))
	tot.bytes += int64(len(c.lines))
	return first
}

// timingSink is a serve.Sink that timestamps a session's output.
type timingSink struct {
	now     func() time.Time
	emitted chan struct{} // closed by the first EmitBits
	bits    []uplink.BitDecision
	bitsAt  time.Time
	res     *uplink.Result
	err     error
	resAt   time.Time
}

func (s *timingSink) EmitBits(bits []uplink.BitDecision) error {
	if s.bitsAt.IsZero() {
		s.bitsAt = s.now()
		s.bits = append(s.bits, bits...)
		close(s.emitted)
	}
	return nil
}

func (s *timingSink) EmitResult(res *uplink.Result, err error) {
	s.resAt = s.now()
	s.res, s.err = res, err
}

// serveInProcess runs one session through Server.Open, Session.Push and
// Session.Finish with no transport: open is timed with its allocations,
// each push is folded into a histogram, close_to_emit runs from the start
// of the frame-closing push to EmitBits, and finish_to_result from Finish
// (called once the bits are out) to EmitResult.
func serveInProcess(srv *serve.Server, c *capture, now func() time.Time, tr *tracer, meter *allocMeter, key int64) error {
	sink := &timingSink{now: now, emitted: make(chan struct{})}
	root := tr.begin("layer.serve", 0, key)
	defer tr.end(root)
	a0 := meter.read()
	t0 := now()
	sess, err := srv.Open(c.params, sink)
	t1 := now()
	a1 := meter.read()
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	tr.allocs(tr.add("serve.session.open", root, key, t0, t1), a1.minus(a0))
	var closeStart time.Time
	for i, m := range c.series.Measurements {
		ts := now()
		err := sess.Push(m)
		tr.fold("serve.session.push", now().Sub(ts))
		if err != nil {
			sess.Finish()
			return fmt.Errorf("push %d: %w", i, err)
		}
		if i == c.closeAt {
			closeStart = ts
		}
	}
	select {
	case <-sink.emitted:
	case <-time.After(ioTimeout):
	}
	tf := now()
	sess.Finish()
	res, err := sess.Result()
	if err != nil {
		return fmt.Errorf("session: %w", err)
	}
	if sink.bitsAt.IsZero() {
		return fmt.Errorf("session emitted no bits before its result")
	}
	tr.add("serve.session.close_to_emit", root, key, closeStart, sink.bitsAt)
	tr.add("serve.session.finish_to_result", root, key, tf, sink.resAt)
	if !bytes.Equal(bitString(sink.bits), bitString(c.refBits)) || !bytes.Equal(payloadString(res.Payload), payloadString(c.ref.Payload)) {
		return fmt.Errorf("in-process session differs from the batch decode")
	}
	return nil
}

// streamAlone feeds c through a bare StreamDecoder: non-closing pushes
// are folded into a histogram, the frame-closing push is a span with its
// allocations.
func streamAlone(c *capture, now func() time.Time, tr *tracer, meter *allocMeter, key int64) error {
	root := tr.begin("layer.stream", 0, key)
	defer tr.end(root)
	sd, err := c.dec.NewStream(c.start, c.kind.payloadLen, c.kind.mode)
	if err != nil {
		return err
	}
	for i, m := range c.series.Measurements {
		if i != c.closeAt {
			t0 := now()
			_, err := sd.Push(m)
			tr.fold("uplink.stream.push", now().Sub(t0))
			if err != nil {
				return err
			}
			continue
		}
		a0 := meter.read()
		t0 := now()
		bits, err := sd.Push(m)
		t1 := now()
		a1 := meter.read()
		if err != nil {
			return err
		}
		tr.allocs(tr.add("uplink.stream.frame_close", root, key, t0, t1), a1.minus(a0))
		if !bytes.Equal(bitString(bits), bitString(c.refBits)) {
			return fmt.Errorf("stream decode differs from the batch decode")
		}
	}
	_, err = sd.Flush()
	return err
}

// layerMetrics derives the per-layer metrics from a traced run: span self
// times and per-push histograms, the layer phase's totals, and the
// untraced (u) and traced (t) phases of the workload.
func layerMetrics(sum []*spanStat, hs []*histStat, tot *layerTotals, u, t *outcome) []metric {
	spans := make(map[string]*spanStat, len(sum))
	for _, s := range sum {
		spans[s.Name] = s
	}
	get := func(name string) *spanStat {
		if s := spans[name]; s != nil {
			return s
		}
		return &spanStat{Name: name}
	}
	hists := make(map[string]*hist, len(hs))
	for _, h := range hs {
		hists[h.Name] = h.h
	}
	histOf := func(name string) *hist {
		if h := hists[name]; h != nil {
			return h
		}
		return new(hist)
	}
	var out []metric
	add := func(ms ...metric) { out = append(out, ms...) }
	val := func(name string, v float64, unit string) metric {
		return metric{name: name, key: name, value: v, unit: unit}
	}
	// spanDist reports a span's self-time median and tail, converting
	// from ms by scale.
	spanDist := func(base string, s *spanStat, unit string, scale float64) []metric {
		p50, tail := quantiles(base, "", base, unit, len(s.self), func(q float64) float64 {
			return sampleQuantile(s.self, q) * scale
		})
		return []metric{p50, tail}
	}

	add(val("core.capture_s", get("core.capture").P50/1e3, "s"))
	parse := get("serve.wire.parse")
	add(val("serve.wire.parse_ns_per_line", parse.Self*1e6/float64(tot.lines), "ns"),
		val("serve.wire.parse_mb_per_s", float64(tot.bytes)/1e6/(parse.Self/1e3), "MB/s"))
	open := get("serve.session.open")
	add(spanDist("serve.session.open_us", open, "us", 1e3)...)
	add(val("serve.session.open_bytes", sampleQuantile(open.bytes, 0.5), "B"))
	p50, tail := histDist("serve.session.push_ns", "", "serve.session.push_ns", "ns", histOf("serve.session.push"), 1)
	add(p50, tail)
	add(spanDist("serve.session.close_to_emit_ms", get("serve.session.close_to_emit"), "ms", 1)...)
	add(val("serve.session.finish_to_result_us", get("serve.session.finish_to_result").P50*1e3, "us"))
	stats := tot.stats
	if u.stats != nil {
		stats = *u.stats
	}
	for _, m := range serveStats(stats) {
		add(m.keyed(m.name))
	}
	add(val("uplink.stream.push_ns", histOf("uplink.stream.push").quantile(0.5), "ns"))
	fc := get("uplink.stream.frame_close")
	add(spanDist("uplink.stream.frame_close_ms", fc, "ms", 1)...)
	add(val("uplink.stream.frame_close_allocs", sampleQuantile(fc.allocs, 0.5), "count"),
		val("uplink.stream.frame_close_bytes", sampleQuantile(fc.bytes, 0.5), "B"))
	for _, b := range []string{"decode_csi", "decode_rssi", "decode_variant", "decode_longrange"} {
		s := get("uplink.batch." + b)
		add(val("uplink.batch."+b+"_ms", s.P50, "ms"),
			val("uplink.batch."+b+"_allocs", sampleQuantile(s.allocs, 0.5), "count"),
			val("uplink.batch."+b+"_bytes", sampleQuantile(s.bytes, 0.5), "B"))
	}
	overhead := 100 * (t.primary - u.primary) / u.primary
	if u.higherIsBetter {
		overhead = -overhead
	}
	add(val("trace.overhead_pct", overhead, "%"))

	// The rest exist on some workloads only, so they print as lines and
	// stay out of the result line.
	add(u.layer...)
	if ing := spans["serve.tcp.ingest_to_bit"]; ing != nil {
		add(metric{name: "serve.tcp.overhead_ms", value: ing.P50 - get("serve.session.close_to_emit").P50, unit: "ms"})
	}
	for _, s := range sum {
		if strings.HasPrefix(s.Name, "eval.exp.") {
			add(metric{name: s.Name + "_s", value: s.Total / 1e3 / float64(s.Count), unit: "s"})
		}
	}
	return out
}
