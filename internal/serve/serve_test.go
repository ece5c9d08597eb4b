package serve_test

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/csi"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/tag"
	"repro/internal/uplink"
)

// Synthetic capture shape shared by the serving tests: small enough that
// 64 race-instrumented sessions stay fast, strong enough coupling that
// the decode is meaningful.
const (
	testAntennas = 2
	testSubs     = 4
	testBitDur   = 0.01
	testStart    = 1.0
)

// synthSeries generates one backscatter capture of the payload, same
// physics as the uplink package's test synthesizer: per-packet AGC gain,
// per-sub-channel noise, a fraction of well-coupled channels.
func synthSeries(t *testing.T, payload []bool, seed int64) *csi.Series {
	t.Helper()
	return synthShaped(t, payload, seed, testAntennas, testSubs)
}

// synthShaped is synthSeries at a chosen antennas × sub-channels shape.
func synthShaped(t testing.TB, payload []bool, seed int64, ants, subs int) *csi.Series {
	t.Helper()
	mod, err := tag.NewModulator(tag.FrameBits(payload), testStart, testBitDur)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rng.New(seed)
	base := make([][]float64, ants)
	coupling := make([][]float64, ants)
	for a := range base {
		base[a] = make([]float64, subs)
		coupling[a] = make([]float64, subs)
		for k := range base[a] {
			base[a][k] = 5 + 10*rnd.Float64()
			c := 0.02 * (rnd.Float64() - 0.5)
			if rnd.Float64() < 0.6 {
				c = 0.25 * (0.5 + rnd.Float64())
				if rnd.Bool() {
					c = -c
				}
			}
			coupling[a][k] = c
		}
	}
	s := &csi.Series{}
	for ts := 0.5; ts < mod.End()+0.2; ts += 0.001 * (1 + 0.3*(rnd.Float64()-0.5)) {
		state := 0.0
		if mod.StateAt(ts) {
			state = 1
		}
		agc := 1 + rnd.Gaussian(0, 0.01)
		m := csi.Measurement{
			Timestamp: ts,
			CSI:       make([][]float64, ants),
			RSSI:      make([]float64, ants),
		}
		for a := 0; a < ants; a++ {
			m.CSI[a] = make([]float64, subs)
			var power float64
			for k := 0; k < subs; k++ {
				amp := base[a][k] * (1 + coupling[a][k]*state) * agc *
					(1 + rnd.Gaussian(0, 0.005))
				m.CSI[a][k] = amp
				power += amp * amp
			}
			m.RSSI[a] = power
		}
		s.Append(m)
	}
	return s
}

// batchDecode is the reference the serving layer must match bit for bit.
func batchDecode(t *testing.T, s *csi.Series, payloadLen int) *uplink.Result {
	t.Helper()
	dec, err := uplink.NewDecoder(uplink.DefaultConfig(testBitDur))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dec.DecodeCSI(s, testStart, payloadLen)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func testParams(payloadLen int) serve.SessionParams {
	return serve.SessionParams{
		Mode:        uplink.StreamCSI,
		BitRate:     1 / testBitDur,
		Start:       testStart,
		PayloadLen:  payloadLen,
		Antennas:    testAntennas,
		Subchannels: testSubs,
	}
}

func randomPayload(n int, seed int64) []bool {
	rnd := rng.New(seed)
	out := make([]bool, n)
	for i := range out {
		out[i] = rnd.Bool()
	}
	return out
}

// memSink collects a session's output in memory.
type memSink struct {
	mu   sync.Mutex
	bits []uplink.BitDecision
	res  *uplink.Result
	err  error
	done chan struct{}
}

func newMemSink() *memSink { return &memSink{done: make(chan struct{})} }

func (ms *memSink) EmitBits(b []uplink.BitDecision) error {
	ms.mu.Lock()
	ms.bits = append(ms.bits, b...)
	ms.mu.Unlock()
	return nil
}

func (ms *memSink) EmitResult(r *uplink.Result, err error) {
	ms.mu.Lock()
	ms.res, ms.err = r, err
	ms.mu.Unlock()
	close(ms.done)
}

// feed pushes a whole series through a session and finishes it.
func feed(t *testing.T, s *serve.Session, series *csi.Series) {
	t.Helper()
	for _, m := range series.Measurements {
		if err := s.Push(m); err != nil {
			t.Fatalf("Push: %v", err)
		}
	}
	s.Finish()
}

func TestSessionMatchesBatch(t *testing.T) {
	payload := randomPayload(16, 3)
	series := synthSeries(t, payload, 3)
	want := batchDecode(t, series, len(payload))

	srv := serve.NewServer(serve.Config{})
	sink := newMemSink()
	sess, err := srv.Open(testParams(len(payload)), sink)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, sess, series)
	res, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("served result differs from batch:\n  got  %+v\n  want %+v", res, want)
	}
	// The incrementally emitted bits reassemble the same payload.
	if len(sink.bits) != len(payload) {
		t.Fatalf("emitted %d bits, want %d", len(sink.bits), len(payload))
	}
	for _, b := range sink.bits {
		if b.Bit != want.Payload[b.Index] {
			t.Errorf("bit %d emitted as %v, batch decoded %v", b.Index, b.Bit, want.Payload[b.Index])
		}
	}
	if got := srv.Stats().BitsServed; got != int64(len(payload)) {
		t.Errorf("BitsServed = %d, want %d", got, len(payload))
	}
}

// TestRSSIOnlySessionDecodes pins that an RSSI session declared with zero
// sub-channels — the RSSI-only shape Validate admits, whose measurements
// carry no CSI rows — decodes to the same bits as the same trace declared
// with one sub-channel.
func TestRSSIOnlySessionDecodes(t *testing.T) {
	payload := randomPayload(16, 4)
	full := synthSeries(t, payload, 4)
	withCSI, rssiOnly := &csi.Series{}, &csi.Series{}
	for _, m := range full.Measurements {
		rows := make([][]float64, len(m.CSI))
		for a := range rows {
			rows[a] = m.CSI[a][:1]
		}
		withCSI.Append(csi.Measurement{Timestamp: m.Timestamp, CSI: rows, RSSI: m.RSSI})
		rssiOnly.Append(csi.Measurement{Timestamp: m.Timestamp, RSSI: m.RSSI})
	}
	decode := func(series *csi.Series, subs int) (*uplink.Result, []uplink.BitDecision) {
		t.Helper()
		p := testParams(len(payload))
		p.Mode, p.Subchannels = uplink.StreamRSSI, subs
		sink := newMemSink()
		sess, err := serve.NewServer(serve.Config{}).Open(p, sink)
		if err != nil {
			t.Fatal(err)
		}
		feed(t, sess, series)
		res, err := sess.Result()
		if err != nil {
			t.Fatalf("subchannels=%d: %v", subs, err)
		}
		return res, sink.bits
	}
	wantRes, wantBits := decode(withCSI, 1)
	gotRes, gotBits := decode(rssiOnly, 0)
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Errorf("RSSI-only result differs:\n  got  %+v\n  want %+v", gotRes, wantRes)
	}
	if !reflect.DeepEqual(gotBits, wantBits) {
		t.Errorf("RSSI-only bits %v, want %v", gotBits, wantBits)
	}
}

// TestConcurrentSessionsMatchBatch is the core isolation property under
// the race detector: many sessions with different captures decode
// concurrently, and each is byte-identical to its own batch decode.
func TestConcurrentSessionsMatchBatch(t *testing.T) {
	const n = 16
	payloadLen := 12
	srv := serve.NewServer(serve.Config{MaxSessions: n, SessionBuffer: 32})
	type caseData struct {
		series *csi.Series
		want   *uplink.Result
	}
	cases := make([]caseData, n)
	for i := range cases {
		series := synthSeries(t, randomPayload(payloadLen, int64(i)), int64(i))
		cases[i] = caseData{series: series, want: batchDecode(t, series, payloadLen)}
	}
	var wg sync.WaitGroup
	for i := range cases {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sink := newMemSink()
			sess, err := srv.Open(testParams(payloadLen), sink)
			if err != nil {
				t.Errorf("session %d: Open: %v", i, err)
				return
			}
			for _, m := range cases[i].series.Measurements {
				if err := sess.Push(m); err != nil {
					t.Errorf("session %d: Push: %v", i, err)
					return
				}
			}
			sess.Finish()
			res, err := sess.Result()
			if err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			if !reflect.DeepEqual(res, cases[i].want) {
				t.Errorf("session %d: served result differs from batch", i)
			}
		}(i)
	}
	wg.Wait()
	st := srv.Stats()
	if st.Accepted != n || st.Completed != n || st.Active != 0 {
		t.Errorf("stats = %+v, want %d accepted and completed, 0 active", st, n)
	}
}

func TestOverloadRejection(t *testing.T) {
	srv := serve.NewServer(serve.Config{MaxSessions: 2})
	p := testParams(8)
	a, err := srv.Open(p, newMemSink())
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv.Open(p, newMemSink())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Open(p, newMemSink()); !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("third Open = %v, want ErrOverloaded", err)
	}
	// Capacity frees as sessions end; nothing was queued meanwhile.
	a.Finish()
	<-a.Done()
	c, err := srv.Open(p, newMemSink())
	if err != nil {
		t.Fatalf("Open after a session ended: %v", err)
	}
	for _, s := range []*serve.Session{b, c} {
		s.Finish()
		<-s.Done()
	}
	st := srv.Stats()
	if st.RejectedOverload != 1 || st.Accepted != 3 || st.ActiveHighWater != 2 {
		t.Errorf("stats = %+v, want 1 rejection, 3 accepted, high-water 2", st)
	}
}

func TestInvalidParamsRejected(t *testing.T) {
	srv := serve.NewServer(serve.Config{})
	bad := testParams(8)
	bad.BitRate = -1
	if _, err := srv.Open(bad, newMemSink()); err == nil {
		t.Error("negative bit rate accepted")
	}
	if _, err := srv.Open(testParams(8), nil); err == nil {
		t.Error("nil sink accepted")
	}
	if st := srv.Stats(); st.RejectedBad != 1 {
		t.Errorf("RejectedBad = %d, want 1", st.RejectedBad)
	}
}

// blockSink parks EmitBits until released, to hold a session's worker
// still while the test fills the slot ring.
type blockSink struct {
	memSink
	entered chan struct{}
	release chan struct{}
}

func newBlockSink() *blockSink {
	return &blockSink{
		memSink: memSink{done: make(chan struct{})},
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
}

func (bs *blockSink) EmitBits(b []uplink.BitDecision) error {
	select {
	case bs.entered <- struct{}{}:
	default:
	}
	<-bs.release
	return bs.memSink.EmitBits(b)
}

// pushUntilParked pushes series up to the measurement that closes the
// session's frame, then waits for the worker to park in sink with the
// frame's bits. Pushing stops at the frame close, so however small the
// slot ring is, it cannot fill up behind the parked worker.
func pushUntilParked(t *testing.T, sess *serve.Session, series *csi.Series, sink *blockSink) {
	t.Helper()
	p := sess.Params()
	dec, err := uplink.NewDecoder(uplink.DefaultConfig(1 / p.BitRate))
	if err != nil {
		t.Fatal(err)
	}
	sd, err := dec.NewStream(p.Start, p.PayloadLen, p.Mode)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range series.Measurements {
		if err := sess.Push(m); err != nil {
			t.Fatalf("Push: %v", err)
		}
		if m.Timestamp >= sd.End() {
			break
		}
	}
	select {
	case <-sink.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("frame never closed; synthetic capture too short")
	}
}

// TestTryPushBackpressure pins the bounded-buffer contract: with the
// worker held still, TryPush fills exactly the slot ring and then fails
// with ErrBufferFull instead of growing anything.
func TestTryPushBackpressure(t *testing.T) {
	const nslots = 8
	payload := randomPayload(8, 7)
	series := synthSeries(t, payload, 7)
	srv := serve.NewServer(serve.Config{SessionBuffer: nslots})
	sink := newBlockSink()
	sess, err := srv.Open(testParams(len(payload)), sink)
	if err != nil {
		t.Fatal(err)
	}
	pushUntilParked(t, sess, series, sink)
	// The parked worker holds no slot and nothing is queued, so nslots
	// TryPushes fit before the ring rejects instead of growing.
	extra := series.Measurements[series.Len()-1]
	full := false
	for i := 0; i < nslots+1; i++ {
		err := sess.TryPush(extra)
		if errors.Is(err, serve.ErrBufferFull) {
			full = true
			break
		}
		if err != nil {
			t.Fatalf("TryPush: %v", err)
		}
	}
	if !full {
		t.Fatalf("ring accepted %d measurements without rejecting", nslots+1)
	}
	close(sink.release)
	sess.Finish()
	if _, err := sess.Result(); err != nil {
		t.Fatalf("Result after backpressure: %v", err)
	}
	st := srv.Stats()
	if st.BufferFull == 0 {
		t.Error("BufferFull counter never moved")
	}
	if st.QueueHighWater != nslots {
		t.Errorf("QueueHighWater = %d, want %d", st.QueueHighWater, nslots)
	}
}

// TestPoisonIsolation pins the containment property: a stream violating
// the timestamp contract fails alone, while a well-formed neighbor
// decodes byte-identically to batch.
func TestPoisonIsolation(t *testing.T) {
	payload := randomPayload(12, 11)
	series := synthSeries(t, payload, 11)
	want := batchDecode(t, series, len(payload))
	srv := serve.NewServer(serve.Config{})

	badSink := newMemSink()
	bad, err := srv.Open(testParams(len(payload)), badSink)
	if err != nil {
		t.Fatal(err)
	}
	goodSink := newMemSink()
	good, err := srv.Open(testParams(len(payload)), goodSink)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// Backwards timestamps: the decoder poisons the stream. Pushes
		// racing the worker's discovery may succeed or fail; both are
		// fine — the sticky error must come out of Result.
		for i, m := range series.Measurements {
			m.Timestamp = float64(series.Len() - i)
			if bad.Push(m) != nil {
				break
			}
		}
		bad.Finish()
	}()
	go func() {
		defer wg.Done()
		for _, m := range series.Measurements {
			if err := good.Push(m); err != nil {
				t.Errorf("good session Push: %v", err)
				return
			}
		}
		good.Finish()
	}()
	wg.Wait()

	if _, err := bad.Result(); err == nil {
		t.Error("backwards stream completed without error")
	}
	if badSink.err == nil {
		t.Error("poison was not delivered on the sink")
	}
	res, err := good.Result()
	if err != nil {
		t.Fatalf("good session: %v", err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Error("good session's result differs from batch next to a poisoned neighbor")
	}
	if st := srv.Stats(); st.Poisoned != 1 {
		t.Errorf("Poisoned = %d, want 1", st.Poisoned)
	}
}

func TestShapeViolationPoisons(t *testing.T) {
	srv := serve.NewServer(serve.Config{})
	sink := newMemSink()
	sess, err := srv.Open(testParams(8), sink)
	if err != nil {
		t.Fatal(err)
	}
	m := csi.Measurement{Timestamp: 0.1, RSSI: make([]float64, testAntennas+1)}
	if err := sess.Push(m); err == nil {
		t.Fatal("wrong-shape measurement accepted")
	}
	if err := sess.Push(m); !errors.Is(err, serve.ErrSessionClosed) {
		t.Errorf("push after shape poison = %v, want ErrSessionClosed", err)
	}
	if _, err := sess.Result(); err == nil {
		t.Error("shape-poisoned session completed cleanly")
	}
	if st := srv.Stats(); st.Poisoned != 1 {
		t.Errorf("Poisoned = %d, want 1", st.Poisoned)
	}
}

// TestDrainFlushesInFrame pins the graceful half of shutdown: sessions
// mid-frame at Drain time deliver the same salvaged decode a truncated
// batch trace would.
func TestDrainFlushesInFrame(t *testing.T) {
	payload := randomPayload(12, 21)
	series := synthSeries(t, payload, 21)
	// Cut mid-frame: everything up to 60% of the capture.
	cutSeries := &csi.Series{Measurements: series.Measurements[:series.Len()*6/10]}
	dec, err := uplink.NewDecoder(uplink.DefaultConfig(testBitDur))
	if err != nil {
		t.Fatal(err)
	}
	want, err := dec.DecodeCSI(cutSeries, testStart, len(payload))
	if err != nil {
		t.Fatal(err)
	}

	srv := serve.NewServer(serve.Config{})
	sink := newMemSink()
	sess, err := srv.Open(testParams(len(payload)), sink)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range cutSeries.Measurements {
		if err := sess.Push(m); err != nil {
			t.Fatal(err)
		}
	}
	// No Finish: Drain must finish it.
	if err := srv.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	res, err := sess.Result()
	if err != nil {
		t.Fatalf("drained session: %v", err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Error("drained session's salvage differs from the batch decode of the same prefix")
	}
	if _, err := srv.Open(testParams(len(payload)), newMemSink()); !errors.Is(err, serve.ErrDraining) {
		t.Errorf("Open after Drain = %v, want ErrDraining", err)
	}
	// Idempotent: a second Drain reports the same clean outcome.
	if err := srv.Drain(); err != nil {
		t.Errorf("second Drain: %v", err)
	}
	st := srv.Stats()
	if st.RejectedDraining != 1 || st.Completed != 1 || st.Aborted != 0 {
		t.Errorf("stats = %+v, want 1 draining rejection, 1 completed, 0 aborted", st)
	}
}

// TestDrainDeadlineAborts pins the hard half: a worker held hostage by a
// sink that never returns cannot hold Drain past its deadline.
func TestDrainDeadlineAborts(t *testing.T) {
	payload := randomPayload(8, 31)
	series := synthSeries(t, payload, 31)
	srv := serve.NewServer(serve.Config{DrainTimeout: 50 * time.Millisecond})
	sink := newBlockSink()
	sess, err := srv.Open(testParams(len(payload)), sink)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range series.Measurements {
		if err := sess.Push(m); err != nil {
			t.Fatal(err)
		}
	}
	<-sink.entered // worker parked in EmitBits
	err = srv.Drain()
	if err == nil {
		t.Fatal("Drain returned clean with a hostage worker")
	}
	if st := srv.Stats(); st.Aborted != 1 {
		t.Errorf("Aborted = %d, want 1", st.Aborted)
	}
	// A producer must be refused immediately after the abort.
	if err := sess.Push(series.Measurements[0]); !errors.Is(err, serve.ErrSessionClosed) {
		t.Errorf("Push after abort = %v, want ErrSessionClosed", err)
	}
	close(sink.release) // let the leaked worker retire
	<-sess.Done()
}

func TestPublishMetrics(t *testing.T) {
	payload := randomPayload(8, 41)
	series := synthSeries(t, payload, 41)
	srv := serve.NewServer(serve.Config{MaxSessions: 1})
	sink := newMemSink()
	sess, err := srv.Open(testParams(len(payload)), sink)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Open(testParams(len(payload)), newMemSink()); !errors.Is(err, serve.ErrOverloaded) {
		t.Fatal("second session admitted past MaxSessions=1")
	}
	feed(t, sess, series)
	if _, err := sess.Result(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv.PublishMetrics(reg)
	if got := reg.Counter("serve.sessions.accepted").Value(); got != 1 {
		t.Errorf("serve.sessions.accepted = %d, want 1", got)
	}
	if got := reg.Counter("serve.sessions.rejected_overload").Value(); got != 1 {
		t.Errorf("serve.sessions.rejected_overload = %d, want 1", got)
	}
	if got := reg.Counter("serve.bits_served").Value(); got != int64(len(payload)) {
		t.Errorf("serve.bits_served = %d, want %d", got, len(payload))
	}
	if got := reg.Gauge("serve.sessions.active").Max(); got != 1 {
		t.Errorf("serve.sessions.active max = %v, want 1", got)
	}
	var sb strings.Builder
	if err := reg.WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !strings.Contains(sb.String(), "serve.sessions.accepted") {
		t.Error("published metrics missing from the JSON snapshot")
	}
}

// TestConfigResolvesDefaults pins Server.Config as the effective
// configuration: zero fields resolve to the published defaults, set
// fields pass through, and a shed threshold outside (0,1] resolves to 1,
// the hard cap.
func TestConfigResolvesDefaults(t *testing.T) {
	got := serve.NewServer(serve.Config{ShedThreshold: 80}).Config()
	want := serve.Config{
		MaxSessions:   serve.DefaultMaxSessions,
		SessionBuffer: serve.DefaultSessionBuffer,
		DrainTimeout:  serve.DefaultDrainTimeout,
		ResumeTTL:     serve.DefaultResumeTTL,
		MaxParked:     serve.DefaultMaxParked,
		ShedThreshold: 1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("zero Config resolved to %+v, want %+v", got, want)
	}
	set := serve.Config{
		MaxSessions:   3,
		SessionBuffer: 5,
		IdleTimeout:   time.Second,
		WriteTimeout:  2 * time.Second,
		DrainTimeout:  3 * time.Second,
		ResumeTTL:     time.Minute,
		MaxParked:     7,
		TokenSeed:     11,
		StallTimeout:  4 * time.Second,
		ShedThreshold: 0.5,
	}
	if got := serve.NewServer(set).Config(); !reflect.DeepEqual(got, set) {
		t.Errorf("explicit Config resolved to %+v, want it unchanged", got)
	}
}
