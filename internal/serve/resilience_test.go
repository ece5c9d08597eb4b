package serve_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/uplink"
)

// Tests for the resilience layer (DESIGN.md §13): session resume, the
// stuck-stream watchdog, adaptive load shedding, and drain racing the
// producer/abort paths. Everything here drives the server in-process so
// the deterministic knobs (WatchdogSweep, SweepResume with fabricated
// times) can be exercised without wall-clock waits.

// resumableParams is testParams with the resume checkpoint enabled.
func resumableParams(payloadLen int) serve.SessionParams {
	p := testParams(payloadLen)
	p.Resumable = true
	return p
}

// failSink refuses every bit forward — the in-process stand-in for a
// dead transport. A resumable session wearing it parks its checkpoint on
// the first emitted bit instead of poisoning.
type failSink struct{ memSink }

func (fs *failSink) EmitBits([]uplink.BitDecision) error {
	return errors.New("transport gone")
}

func newFailSink() *failSink {
	return &failSink{memSink: memSink{done: make(chan struct{})}}
}

// waitParked polls until the server reports exactly n parked checkpoints.
func waitParked(t *testing.T, srv *serve.Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.ParkedCheckpoints() != n {
		if time.Now().After(deadline) {
			t.Fatalf("parked checkpoints = %d, want %d", srv.ParkedCheckpoints(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func bitValues(bits []uplink.BitDecision) []bool {
	out := make([]bool, len(bits))
	for i, b := range bits {
		out[i] = b.Bit
	}
	return out
}

// TestWatchdogAbortsOnlyStalledSession pins the containment contract: a
// session whose worker is wedged inside a sink write is aborted with the
// distinct ErrStalled verdict within the sweep deadline, while healthy
// neighbors keep decoding byte-identical to batch and the watchdog
// metrics account for exactly one stall.
func TestWatchdogAbortsOnlyStalledSession(t *testing.T) {
	payload := randomPayload(12, 21)
	series := synthSeries(t, payload, 21)
	want := batchDecode(t, series, len(payload))

	// A nil Now keeps the maintenance loop off; the test drives ticks
	// itself via WatchdogSweep (each call = one tick against the
	// deadline).
	srv := serve.NewServer(serve.Config{
		StallTimeout: time.Hour,
	})

	stuck := newBlockSink()
	stalled, err := srv.Open(testParams(len(payload)), stuck)
	if err != nil {
		t.Fatal(err)
	}
	pushUntilParked(t, stalled, series, stuck)
	// While that worker is parked, healthy sessions stream to completion.
	for i := 0; i < 2; i++ {
		sink := newMemSink()
		sess, err := srv.Open(testParams(len(payload)), sink)
		if err != nil {
			t.Fatal(err)
		}
		feed(t, sess, series)
		res, err := sess.Result()
		if err != nil {
			t.Fatalf("healthy session %d: %v", i, err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("healthy session %d diverged from batch", i)
		}
	}

	// Sweep until the watchdog convicts the wedged session; the loop
	// tolerates sweeps landing before the worker blocks.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().WatchdogStalls == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never convicted the stalled session")
		}
		srv.WatchdogSweep()
		time.Sleep(time.Millisecond)
	}
	close(stuck.release)
	if _, err := stalled.Result(); !errors.Is(err, serve.ErrStalled) {
		t.Fatalf("stalled session verdict = %v, want ErrStalled", err)
	}

	st := srv.Stats()
	if st.WatchdogStalls != 1 {
		t.Errorf("WatchdogStalls = %d, want 1", st.WatchdogStalls)
	}
	if st.WatchdogScans == 0 {
		t.Error("WatchdogScans never moved")
	}
	reg := obs.NewRegistry()
	srv.PublishMetrics(reg)
	if got := reg.Counter("serve.watchdog.stalls").Value(); got != 1 {
		t.Errorf("serve.watchdog.stalls = %d, want 1", got)
	}
	if err := srv.Drain(); err != nil {
		t.Fatalf("Drain after stall: %v", err)
	}
}

// TestResumeReplayByteIdentical is the in-process resume contract: a
// session cut mid-stream re-attaches by token, replays the missed bits,
// and finishes byte-identical to an uninterrupted batch decode.
func TestResumeReplayByteIdentical(t *testing.T) {
	payload := randomPayload(16, 23)
	series := synthSeries(t, payload, 23)
	want := batchDecode(t, series, len(payload))

	srv := serve.NewServer(serve.Config{TokenSeed: 99})
	first := newMemSink()
	sess, err := srv.Open(resumableParams(len(payload)), first)
	if err != nil {
		t.Fatal(err)
	}
	tok := sess.Token()
	if len(tok) != 16 {
		t.Fatalf("token %q is not 16 hex digits", tok)
	}
	half := series.Len() / 2
	for _, m := range series.Measurements[:half] {
		if err := sess.Push(m); err != nil {
			t.Fatalf("Push: %v", err)
		}
	}

	// The transport dies; a new client resumes by token claiming zero
	// bits received, so every recorded bit is replayed to it.
	got, _, err := srv.ResumeSession(tok, nil)
	if err != nil {
		t.Fatalf("ResumeSession: %v", err)
	}
	second := newMemSink()
	info, err := got.Attach(second, 0, nil)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if info.Final {
		t.Fatal("checkpoint claims final before the stream ended")
	}
	for _, m := range series.Measurements[info.Consumed:] {
		if err := got.Push(m); err != nil {
			t.Fatalf("Push after resume: %v", err)
		}
	}
	got.Finish()
	res, err := got.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Error("resumed decode diverged from batch")
	}
	<-second.done
	if !reflect.DeepEqual(bitValues(second.bits), want.Payload) {
		t.Errorf("resumed bit stream = %v, want %v", bitValues(second.bits), want.Payload)
	}
	st := srv.Stats()
	if st.Resumed != 1 {
		t.Errorf("Resumed = %d, want 1", st.Resumed)
	}
}

// TestResumeFinalReplay covers the cut between the server recording the
// result and the client reading it: a resume against a finished
// checkpoint replays all bits plus the final result and parks again.
func TestResumeFinalReplay(t *testing.T) {
	payload := randomPayload(12, 29)
	series := synthSeries(t, payload, 29)
	want := batchDecode(t, series, len(payload))

	srv := serve.NewServer(serve.Config{TokenSeed: 7})
	first := newMemSink()
	sess, err := srv.Open(resumableParams(len(payload)), first)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, sess, series)
	if _, err := sess.Result(); err != nil {
		t.Fatal(err)
	}
	waitParked(t, srv, 1)

	got, _, err := srv.ResumeSession(sess.Token(), nil)
	if err != nil {
		t.Fatalf("ResumeSession after finish: %v", err)
	}
	second := newMemSink()
	info, err := got.Attach(second, 0, nil)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if !info.Final {
		t.Error("AttachInfo.Final = false on a finished checkpoint")
	}
	<-second.done
	if !reflect.DeepEqual(second.res, want) {
		t.Error("replayed result diverged from batch")
	}
	if !reflect.DeepEqual(bitValues(second.bits), want.Payload) {
		t.Error("replayed bits diverged from batch")
	}
	// The checkpoint parks again, so yet another resume still works.
	waitParked(t, srv, 1)
	if st := srv.Stats(); st.ReplayedBits != int64(len(payload)) {
		t.Errorf("ReplayedBits = %d, want %d", st.ReplayedBits, len(payload))
	}
}

// TestResumeRejectsBadClaims covers the two refusal paths: an unknown
// token, and a resume claiming more bits than were ever emitted (which
// re-parks the checkpoint instead of corrupting the cursor).
func TestResumeRejectsBadClaims(t *testing.T) {
	payload := randomPayload(8, 31)
	series := synthSeries(t, payload, 31)
	srv := serve.NewServer(serve.Config{TokenSeed: 11})

	if _, _, err := srv.ResumeSession("0123456789abcdef", nil); !errors.Is(err, serve.ErrUnknownResume) {
		t.Fatalf("unknown token error = %v, want ErrUnknownResume", err)
	}

	sess, err := srv.Open(resumableParams(len(payload)), newMemSink())
	if err != nil {
		t.Fatal(err)
	}
	feed(t, sess, series)
	if _, err := sess.Result(); err != nil {
		t.Fatal(err)
	}
	waitParked(t, srv, 1)
	got, _, err := srv.ResumeSession(sess.Token(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.Attach(newMemSink(), len(payload)+1, nil); err == nil {
		t.Fatal("over-claiming resume was accepted")
	}
	waitParked(t, srv, 1)
	if st := srv.Stats(); st.ResumeUnknown != 1 {
		t.Errorf("ResumeUnknown = %d, want 1", st.ResumeUnknown)
	}
}

// TestSweepResumeTTL pins the deterministic TTL eviction: the server
// never reads a clock, so the test's fabricated "now" decides exactly
// which sweep evicts, and the evicted token is gone from the table.
func TestSweepResumeTTL(t *testing.T) {
	payload := randomPayload(8, 37)
	series := synthSeries(t, payload, 37)
	base := time.Unix(1_000_000, 0)
	srv := serve.NewServer(serve.Config{
		TokenSeed: 3,
		ResumeTTL: time.Minute,
		Now:       func() time.Time { return base },
	})
	sess, err := srv.Open(resumableParams(len(payload)), newMemSink())
	if err != nil {
		t.Fatal(err)
	}
	feed(t, sess, series)
	if _, err := sess.Result(); err != nil {
		t.Fatal(err)
	}
	waitParked(t, srv, 1)

	if n := srv.SweepResume(base.Add(59 * time.Second)); n != 0 {
		t.Fatalf("sweep before TTL evicted %d checkpoints", n)
	}
	if n := srv.SweepResume(base.Add(time.Minute)); n != 1 {
		t.Fatalf("sweep at TTL evicted %d checkpoints, want 1", n)
	}
	if srv.ParkedCheckpoints() != 0 {
		t.Errorf("parked checkpoints = %d after eviction", srv.ParkedCheckpoints())
	}
	if _, _, err := srv.ResumeSession(sess.Token(), nil); !errors.Is(err, serve.ErrUnknownResume) {
		t.Fatalf("resume after TTL eviction = %v, want ErrUnknownResume", err)
	}
	if st := srv.Stats(); st.EvictedTTL != 1 {
		t.Errorf("EvictedTTL = %d, want 1", st.EvictedTTL)
	}
}

// TestMaxParkedEvictsOldest pins capacity eviction: with MaxParked 1,
// parking a second checkpoint evicts the oldest, whose unfinished stream
// ends with the ErrCheckpointExpired verdict; the survivor still resumes
// to a byte-identical decode.
func TestMaxParkedEvictsOldest(t *testing.T) {
	payload := randomPayload(12, 41)
	series := synthSeries(t, payload, 41)
	want := batchDecode(t, series, len(payload))
	srv := serve.NewServer(serve.Config{TokenSeed: 5, MaxParked: 1})

	// Two resumable sessions whose transports die on the first bit: feed
	// the whole capture without Finish so each parks unfinished.
	push := func(s *serve.Session) {
		for _, m := range series.Measurements {
			if err := s.Push(m); err != nil {
				t.Fatalf("Push: %v", err)
			}
		}
	}
	old, err := srv.Open(resumableParams(len(payload)), newFailSink())
	if err != nil {
		t.Fatal(err)
	}
	push(old)
	waitParked(t, srv, 1)
	young, err := srv.Open(resumableParams(len(payload)), newFailSink())
	if err != nil {
		t.Fatal(err)
	}
	push(young)
	waitParked(t, srv, 1) // young parked, old evicted

	if _, err := old.Result(); !errors.Is(err, serve.ErrCheckpointExpired) {
		t.Fatalf("evicted session verdict = %v, want ErrCheckpointExpired", err)
	}
	if _, _, err := srv.ResumeSession(old.Token(), nil); !errors.Is(err, serve.ErrUnknownResume) {
		t.Fatalf("resume of evicted token = %v, want ErrUnknownResume", err)
	}
	if st := srv.Stats(); st.EvictedCapacity != 1 {
		t.Errorf("EvictedCapacity = %d, want 1", st.EvictedCapacity)
	}

	// The survivor resumes: replayed bits plus the flush must equal the
	// uninterrupted decode exactly.
	got, _, err := srv.ResumeSession(young.Token(), nil)
	if err != nil {
		t.Fatalf("ResumeSession on survivor: %v", err)
	}
	sink := newMemSink()
	info, err := got.Attach(sink, 0, nil)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	for _, m := range series.Measurements[info.Consumed:] {
		if err := got.Push(m); err != nil {
			t.Fatalf("Push after resume: %v", err)
		}
	}
	got.Finish()
	res, err := got.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Error("survivor's decode diverged from batch")
	}
	<-sink.done
	if !reflect.DeepEqual(bitValues(sink.bits), want.Payload) {
		t.Error("survivor's replayed bit stream diverged from batch")
	}
}

// TestShedPreemptsLowestPriority pins the shed policy: at capacity a
// higher-priority newcomer preempts the lowest-priority active session
// (ErrShed verdict), while an equal-priority newcomer is rejected with a
// machine-readable retry-after hint.
func TestShedPreemptsLowestPriority(t *testing.T) {
	payload := randomPayload(8, 43)
	series := synthSeries(t, payload, 43)
	want := batchDecode(t, series, len(payload))
	srv := serve.NewServer(serve.Config{MaxSessions: 2})

	params := func(prio int) serve.SessionParams {
		p := testParams(len(payload))
		p.Priority = prio
		return p
	}
	low, err := srv.Open(params(1), newMemSink())
	if err != nil {
		t.Fatal(err)
	}
	midSink := newMemSink()
	mid, err := srv.Open(params(5), midSink)
	if err != nil {
		t.Fatal(err)
	}

	// Equal priority finds no victim: rejected with a retry hint that
	// unwraps to ErrOverloaded.
	_, err = srv.Open(params(1), newMemSink())
	if !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("equal-priority open = %v, want ErrOverloaded", err)
	}
	var re *serve.RetryError
	if !errors.As(err, &re) || re.After <= 0 {
		t.Fatalf("rejection %v carries no positive retry-after hint", err)
	}

	// Priority 9 preempts the priority-1 stream and is admitted.
	highSink := newMemSink()
	high, err := srv.Open(params(9), highSink)
	if err != nil {
		t.Fatalf("high-priority open rejected: %v", err)
	}
	if _, err := low.Result(); !errors.Is(err, serve.ErrShed) {
		t.Fatalf("victim verdict = %v, want ErrShed", err)
	}

	// The survivor and the newcomer both finish byte-identical to batch.
	for name, pair := range map[string]struct {
		s    *serve.Session
		sink *memSink
	}{"mid": {mid, midSink}, "high": {high, highSink}} {
		feed(t, pair.s, series)
		res, err := pair.s.Result()
		if err != nil {
			t.Fatalf("%s session: %v", name, err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("%s session diverged from batch", name)
		}
	}

	st := srv.Stats()
	if st.ShedPreempted != 1 {
		t.Errorf("ShedPreempted = %d, want 1", st.ShedPreempted)
	}
	if st.ShedRejected != 1 {
		t.Errorf("ShedRejected = %d, want 1", st.ShedRejected)
	}
	if st.RetryHints == 0 {
		t.Error("RetryHints never moved")
	}
	reg := obs.NewRegistry()
	srv.PublishMetrics(reg)
	if got := reg.Counter("serve.shed.preempted").Value(); got != 1 {
		t.Errorf("serve.shed.preempted = %d, want 1", got)
	}
}

// TestShedThresholdSheds pins the single admission comparison across
// threshold values and caps: an in-range threshold below one session's
// load sheds from the second open on — preempting a strictly
// lower-priority stream, rejecting an equal one — long before the hard
// MaxSessions wall, while zero, one, and every out-of-range threshold
// behave exactly like the hard cap, where the retry-after hint is 2x its
// base.
func TestShedThresholdSheds(t *testing.T) {
	const retryBase = 500 * time.Millisecond // serve's retry-after base
	payload := randomPayload(8, 47)
	params := func(prio int) serve.SessionParams {
		p := testParams(len(payload))
		p.Priority = prio
		return p
	}
	for _, maxSessions := range []int{2, 100} {
		for _, tc := range []struct {
			threshold float64
			hardCap   bool // sheds only at MaxSessions
		}{
			{0, true},
			{0.005, false},
			{1, true},
			{1.5, true},
			{-1, true},
			{math.NaN(), true},
		} {
			t.Run(fmt.Sprintf("max%d/threshold%v", maxSessions, tc.threshold), func(t *testing.T) {
				srv := serve.NewServer(serve.Config{
					MaxSessions:   maxSessions,
					SessionBuffer: 1,
					ShedThreshold: tc.threshold,
				})
				low, err := srv.Open(params(0), newMemSink())
				if err != nil {
					t.Fatalf("first open under threshold rejected: %v", err)
				}
				if !tc.hardCap {
					if p := srv.Pressure(); p < tc.threshold {
						t.Fatalf("Pressure() = %v after one session, below the test threshold", p)
					}
				}

				// Equal-priority opens are admitted up to the shedding
				// point, then rejected with a retry hint.
				wantAdmitted := 1
				if tc.hardCap {
					wantAdmitted = maxSessions
				}
				admitted := 1
				for ; admitted <= maxSessions; admitted++ {
					if _, err = srv.Open(params(0), newMemSink()); err != nil {
						break
					}
				}
				if admitted != wantAdmitted {
					t.Fatalf("admitted %d equal-priority sessions, want %d", admitted, wantAdmitted)
				}
				if !errors.Is(err, serve.ErrOverloaded) {
					t.Fatalf("equal-priority open under pressure = %v, want ErrOverloaded", err)
				}
				var re *serve.RetryError
				if !errors.As(err, &re) {
					t.Fatalf("rejection %v carries no retry-after hint", err)
				}
				if tc.hardCap {
					if p := srv.Pressure(); p != 1 {
						t.Errorf("Pressure() at the cap = %v, want 1", p)
					}
					if re.After != 2*retryBase {
						t.Errorf("retry-after at the cap = %v, want %v", re.After, 2*retryBase)
					}
				} else if re.After <= 0 || re.After >= 2*retryBase {
					t.Errorf("retry-after below the cap = %v, want in (0, %v)", re.After, 2*retryBase)
				}

				// A higher priority preempts the oldest lowest-priority
				// session.
				if _, err := srv.Open(params(5), newMemSink()); err != nil {
					t.Fatalf("higher-priority open under pressure rejected: %v", err)
				}
				if _, err := low.Result(); !errors.Is(err, serve.ErrShed) {
					t.Fatalf("victim verdict = %v, want ErrShed", err)
				}
				if err := srv.Drain(); err != nil {
					t.Fatalf("Drain: %v", err)
				}
			})
		}
	}
}

// TestMaintenanceLoop runs the server-owned maintenance loop on the wall
// clock: with no SweepResume or WatchdogSweep call from the test, a
// parked checkpoint is evicted by TTL and a session wedged in its sink
// gets ErrStalled. Every wait is a deadline, not a fixed sleep.
func TestMaintenanceLoop(t *testing.T) {
	payload := randomPayload(12, 59)
	series := synthSeries(t, payload, 59)
	// A 20ms TTL makes the loop tick every 5ms; the 1s stall deadline
	// leaves a healthy frame close ample time even under the race
	// detector at GOMAXPROCS=1.
	srv := serve.NewServer(serve.Config{
		TokenSeed:    13,
		ResumeTTL:    20 * time.Millisecond,
		StallTimeout: time.Second,
		Now:          time.Now,
	})
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("maintenance loop never %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	parked, err := srv.Open(resumableParams(len(payload)), newMemSink())
	if err != nil {
		t.Fatal(err)
	}
	feed(t, parked, series)
	if _, err := parked.Result(); err != nil {
		t.Fatal(err)
	}
	waitFor("evicted the parked checkpoint", func() bool { return srv.Stats().EvictedTTL == 1 })
	if n := srv.ParkedCheckpoints(); n != 0 {
		t.Errorf("parked checkpoints = %d after TTL eviction", n)
	}
	if _, _, err := srv.ResumeSession(parked.Token(), nil); !errors.Is(err, serve.ErrUnknownResume) {
		t.Fatalf("resume after TTL eviction = %v, want ErrUnknownResume", err)
	}

	stuck := newBlockSink()
	stalled, err := srv.Open(testParams(len(payload)), stuck)
	if err != nil {
		t.Fatal(err)
	}
	pushUntilParked(t, stalled, series, stuck)
	waitFor("convicted the stalled session", func() bool { return srv.Stats().WatchdogStalls == 1 })
	close(stuck.release)
	if _, err := stalled.Result(); !errors.Is(err, serve.ErrStalled) {
		t.Fatalf("stalled session verdict = %v, want ErrStalled", err)
	}
	if err := srv.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestDrainRacesProducers hammers Drain against concurrent Opens,
// Push/TryPush producers, watchdog sweeps, and shed preemptions with
// randomized interleavings. The race detector owns the memory-safety
// verdict; the test asserts liveness (every session's Result returns)
// and that every error is one of the layer's published verdicts.
func TestDrainRacesProducers(t *testing.T) {
	payload := randomPayload(8, 53)
	series := synthSeries(t, payload, 53)
	srv := serve.NewServer(serve.Config{
		MaxSessions:  4,
		StallTimeout: time.Hour,
	})

	var (
		mu       sync.Mutex
		sessions []*serve.Session
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rng.New(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := testParams(len(payload))
				p.Priority = rnd.Intn(10)
				p.Resumable = rnd.Bool()
				sess, err := srv.Open(p, newMemSink())
				if err != nil {
					if errors.Is(err, serve.ErrDraining) {
						return
					}
					continue // overload/shed rejection: try again
				}
				mu.Lock()
				sessions = append(sessions, sess)
				mu.Unlock()
				n := rnd.Intn(series.Len())
				for _, m := range series.Measurements[:n] {
					var err error
					if rnd.Bool() {
						err = sess.TryPush(m)
					} else {
						err = sess.Push(m)
					}
					if err != nil {
						break
					}
				}
				if rnd.Float64() < 0.8 {
					sess.Finish()
				}
			}
		}(int64(100 + g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				srv.WatchdogSweep()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	time.Sleep(20 * time.Millisecond)
	err := srv.Drain()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, openErr := srv.Open(testParams(len(payload)), newMemSink()); !errors.Is(openErr, serve.ErrDraining) {
		t.Fatalf("Open after Drain = %v, want ErrDraining", openErr)
	}

	// A session fed a random prefix may legitimately fail its flush with
	// a decode error; what must never happen is a session's terminal
	// verdict being an admission error — those belong to Open/TryPush.
	admission := []error{serve.ErrOverloaded, serve.ErrBufferFull, serve.ErrDraining}
	mu.Lock()
	defer mu.Unlock()
	for i, sess := range sessions {
		_, err := sess.Result() // must not hang: drain finishes every session
		for _, a := range admission {
			if errors.Is(err, a) {
				t.Errorf("session %d died with admission error %v as its verdict", i, err)
			}
		}
	}
}
