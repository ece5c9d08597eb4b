package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/downlink"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/reader"
	"repro/internal/tag"
	"repro/internal/units"
	"repro/internal/wifi"
)

// The exactness oracle for the transaction's streamed response decode:
// RunQuery as it was when it decoded each response from the retained
// series at the decode event, kept verbatim (renamed with a ref prefix).
// The streamed RunQuery must give the same QueryResult and the same
// metrics snapshot, save uplink.stream.pushes: the batch decode pushed the
// whole series from t = 0, the stream only the captures from the
// response's subscription to its flush.

func (s *System) refRunQuery(q reader.Query, tagData uint64, tc TransactionConfig) (*QueryResult, error) {
	if q.BitRate == 0 {
		return nil, fmt.Errorf("core: query must advise a bit rate")
	}
	if tc.DownlinkBitDuration <= 0 || tc.ResponseTimeout <= 0 || tc.MaxAttempts <= 0 {
		return nil, fmt.Errorf("core: invalid transaction config %+v", tc)
	}
	s.EnableTxLog()
	enc, err := downlink.NewEncoder(tc.DownlinkBitDuration)
	if err != nil {
		return nil, err
	}
	enc.Instrument(s.obs)
	if s.faults != nil {
		enc.Impair = s.faults
	}
	txnStart := s.Eng.Now()
	tallyStart := s.faults.Tally()
	chunks := enc.Plan(q.Encode().Bits())
	if len(chunks) != 1 {
		return nil, fmt.Errorf("core: query does not fit one reservation (%d chunks)", len(chunks))
	}
	res := &QueryResult{Query: q}
	tr := reader.NewTransaction(q)
	tr.MaxAttempts = tc.MaxAttempts
	done := false

	// attempt runs one try; backoff is the wait this try spent queued
	// behind its predecessor's failure (0 for the first).
	var attempt func(backoff float64)
	attempt = func(backoff float64) {
		if done || !tr.NextAttempt() {
			done = true
			return
		}
		if backoff > 0 {
			res.BackoffTotal += backoff
			s.obs.Counter("txn.backoffs").Inc()
			s.obs.Timer("txn.backoff_s").Observe(backoff)
		}
		res.Attempts = tr.Attempts
		s.obs.Counter("txn.attempts").Inc()
		if tr.Attempts > 1 {
			s.obs.Counter("txn.retries").Inc()
		}
		deadline := s.Eng.Now() + tc.ResponseTimeout
		if err := enc.Send(s.Medium, s.Reader, chunks, func(_ int, start float64) {
			// Tag decodes at the end of the protected window.
			s.Eng.ScheduleAt(start+chunks[0].Reservation, func() {
				wr, derr := s.DecodeDownlinkWindow(start, chunks[0].Reservation, tc.DownlinkBitDuration)
				if derr != nil || wr.Err != nil {
					return // tag missed the query; reader will time out
				}
				res.TagDecoded = true
				res.TagHeard = reader.DecodeQuery(wr.Message)
				// Tag responds at the advised rate after turnaround.
				// The payload is scrambled so structured data stays
				// DC-balanced under the reader's conditioning filter.
				bits := tag.FrameBits(tag.Scramble(downlink.NewMessage(tagData).PayloadBits()))
				startTx := s.Eng.Now() + tc.Turnaround
				mod, merr := s.TransmitUplink(bits, startTx, float64(res.TagHeard.BitRate))
				if merr != nil {
					return
				}
				// Reader decodes after the response completes.
				s.Eng.ScheduleAt(mod.End()+0.05, func() {
					dec, uerr := s.UplinkDecoder(float64(res.TagHeard.BitRate))
					if uerr != nil {
						return
					}
					ur, uerr := dec.DecodeCSI(s.Series(), mod.Start(), downlink.PayloadBits)
					if uerr != nil {
						return
					}
					res.ResponseCorrelation = ur.PreambleCorrelation
					if !dec.Detected(ur) {
						return
					}
					msg, perr := downlink.ParsePayload(tag.Scramble(ur.Payload))
					if perr != nil {
						return
					}
					res.ResponseOK = true
					res.ResponseData = msg.Data
					tr.Complete()
					done = true
					s.obs.Counter("txn.completed").Inc()
					s.obs.Timer("txn.duration_s").Observe(s.Eng.Now() - txnStart)
				})
			})
		}); err != nil {
			done = true
			return
		}
		// Retry after the timeout plus backoff if not complete. The wait
		// is computed from the attempt that just ran: its failure is what
		// the backoff answers.
		wait := tc.backoffAfter(tr.Attempts)
		s.Eng.ScheduleAt(deadline+wait, func() {
			if !done {
				attempt(wait)
			}
		})
	}
	s.Eng.Schedule(0, func() { attempt(0) })
	horizon := s.Eng.Now() + float64(tc.MaxAttempts+1)*tc.ResponseTimeout + tc.maxBackoffTotal()
	s.Eng.Run(horizon)
	if s.faults != nil {
		delta := s.faults.Tally().Sub(tallyStart)
		res.Faults = FaultVerdict{
			Injected: delta.Total(),
			Kinds:    delta.ActiveKinds(),
			Survived: res.ResponseOK && delta.Total() > 0,
		}
		if delta.Total() > 0 {
			s.obs.Counter("txn.faulted").Inc()
			if res.ResponseOK {
				s.obs.Counter("txn.survived_faults").Inc()
			}
		}
	}
	return res, nil
}

// withoutPushes returns a copy of snap without the uplink.stream.pushes
// counter, the one metric that counts the captures a decode was fed
// rather than what it decoded.
func withoutPushes(snap *obs.Snapshot) *obs.Snapshot {
	c := *snap
	c.Counters = slices.DeleteFunc(slices.Clone(snap.Counters), func(cs obs.CounterSnapshot) bool {
		return cs.Name == "uplink.stream.pushes"
	})
	return &c
}

// TestRunQueryMatchesReference runs each transaction twice, on a system
// that streams the response and on its twin that decodes the retained
// series, over seeds, distances (one out of the tag's reach, so every
// attempt retries) and fault schedules, and compares the outcomes bit for
// bit. The last schedule corrupts uplink samples and drops captures
// throughout, and still lets the tag hear queries, so the injector draws
// both for the captures after a response and for its decode: a decode
// moved off the decode event changes the draws.
func TestRunQueryMatchesReference(t *testing.T) {
	profiles := []string{"", "chaos", "bursty", "stalls", "corrupt@0:60x0.3;csidrop@0:60x0.5"}
	for _, name := range profiles {
		for _, seed := range []int64{1, 2} {
			for _, cm := range []float64{10, 60} {
				cfg := Config{Seed: seed, TagReaderDistance: units.Centimeters(cm)}
				if name != "" {
					sched, err := faults.ParseSpec(name)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Faults = sched
				}
				tc := DefaultTransactionConfig()
				tc.MaxAttempts = 3
				run := func(query func(*System) (*QueryResult, error)) (*QueryResult, *System) {
					sys, err := NewSystem(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := (&wifi.CBRSource{Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 0.001}).Start(); err != nil {
						t.Fatal(err)
					}
					sys.Run(0.3)
					res, err := query(sys)
					if err != nil {
						t.Fatal(err)
					}
					return res, sys
				}
				q := reader.Query{Command: reader.CmdRead, TagID: 1, BitRate: 100}
				got, gsys := run(func(s *System) (*QueryResult, error) { return s.RunQuery(q, 0xBEEF_0042, tc) })
				want, wsys := run(func(s *System) (*QueryResult, error) { return s.refRunQuery(q, 0xBEEF_0042, tc) })
				what := fmt.Sprintf("%q seed %d at %v cm", name, seed, cm)
				if math.Float64bits(got.ResponseCorrelation) != math.Float64bits(want.ResponseCorrelation) ||
					math.Float64bits(got.BackoffTotal) != math.Float64bits(want.BackoffTotal) ||
					!reflect.DeepEqual(got, want) {
					t.Errorf("%s: result %+v, reference %+v", what, got, want)
				}
				if g, w := withoutPushes(gsys.Metrics().Snapshot()), withoutPushes(wsys.Metrics().Snapshot()); !reflect.DeepEqual(g, w) {
					t.Errorf("%s: metrics snapshot differs from the reference:\n%+v\n%+v", what, g, w)
				}
				if g, w := gsys.FaultInjector().Tally(), wsys.FaultInjector().Tally(); g != w {
					t.Errorf("%s: fault tally %+v, reference %+v", what, g, w)
				}
				if gsys.Series().Len() != 0 {
					t.Errorf("%s: the streaming system kept %d measurements", what, gsys.Series().Len())
				}
				if name == "" && cm == 10 && !got.ResponseOK {
					t.Errorf("%s: the clean near transaction failed: %+v", what, got)
				}
			}
		}
	}
}
