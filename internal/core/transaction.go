package core

import (
	"fmt"
	"math"

	"repro/internal/downlink"
	"repro/internal/reader"
	"repro/internal/tag"
	"repro/internal/uplink"
)

// This file implements the full request-response transaction of §2: the
// reader queries the tag on the downlink (packet presence/absence inside a
// CTS_to_SELF) and the tag answers on the uplink (channel modulation over
// the helper's packets), with reader-side retransmission (§4.1) paced by
// bounded exponential backoff — hammering the channel again immediately
// after a timeout is exactly wrong when the failure came from a burst
// interferer or a fade that needs time to pass.

// FaultVerdict attributes injected faults to one transaction.
type FaultVerdict struct {
	// Injected counts fault events injected while the transaction ran.
	Injected int64
	// Kinds lists the fault kinds that fired, sorted.
	Kinds []string
	// Survived reports that the transaction completed despite at least
	// one injected fault.
	Survived bool
}

// QueryResult reports one transaction's outcome.
type QueryResult struct {
	// Query as sent.
	Query reader.Query
	// Attempts used (1 = first try succeeded).
	Attempts int
	// TagDecoded reports whether the tag decoded the query (CRC clean).
	TagDecoded bool
	// TagHeard is the query the tag decoded.
	TagHeard reader.Query
	// ResponseOK reports whether the reader decoded the tag's response
	// with a clean CRC.
	ResponseOK bool
	// ResponseData is the tag's decoded 48-bit response payload.
	ResponseData uint64
	// ResponseCorrelation is the uplink preamble correlation of the
	// final attempt.
	ResponseCorrelation float64
	// BackoffTotal is the time this transaction spent waiting in
	// retransmission backoff, seconds.
	BackoffTotal float64
	// Faults is the per-query fault verdict (zero when the system runs
	// without a fault schedule).
	Faults FaultVerdict
}

// TransactionConfig tunes the round trip.
type TransactionConfig struct {
	// DownlinkBitDuration (50 µs default → 20 kbps).
	DownlinkBitDuration float64
	// Turnaround is the delay between the tag decoding a query and
	// starting its response.
	Turnaround float64
	// ResponseTimeout bounds one attempt: downlink + turnaround +
	// uplink + decode margin.
	ResponseTimeout float64
	// MaxAttempts bounds retransmissions.
	MaxAttempts int
	// BackoffBase is the wait added after the first failed attempt;
	// subsequent failures multiply it by BackoffFactor, capped at
	// BackoffMax. Zero disables backoff (retry exactly at the timeout).
	BackoffBase float64
	// BackoffFactor is the exponential growth factor (values below 1 are
	// treated as the default 2).
	BackoffFactor float64
	// BackoffMax caps a single backoff wait. Zero means uncapped.
	BackoffMax float64
}

// DefaultTransactionConfig returns sane timings for a 100 bps uplink.
func DefaultTransactionConfig() TransactionConfig {
	return TransactionConfig{
		DownlinkBitDuration: 50e-6,
		Turnaround:          0.02,
		ResponseTimeout:     3.0,
		MaxAttempts:         5,
		BackoffBase:         0.025,
		BackoffFactor:       2,
		BackoffMax:          0.4,
	}
}

// backoffAfter returns the wait inserted after the given failed attempt
// (1-based). Attempt n waits Base·Factor^(n−1), capped at Max.
func (tc TransactionConfig) backoffAfter(attempt int) float64 {
	if tc.BackoffBase <= 0 || attempt <= 0 {
		return 0
	}
	factor := tc.BackoffFactor
	if factor < 1 {
		factor = 2
	}
	b := tc.BackoffBase * math.Pow(factor, float64(attempt-1))
	if tc.BackoffMax > 0 && b > tc.BackoffMax {
		b = tc.BackoffMax
	}
	return b
}

// maxBackoffTotal is the largest backoff a full retry ladder can spend.
func (tc TransactionConfig) maxBackoffTotal() float64 {
	var sum float64
	for i := 1; i < tc.MaxAttempts; i++ {
		sum += tc.backoffAfter(i)
	}
	return sum
}

// RunQuery executes a full transaction: the reader sends q on the
// downlink; if the tag decodes it, the tag responds with tagData (48 bits)
// at the query's advised bit rate; the reader decodes the response from
// its channel measurements. Helper traffic must already be running and the
// engine is advanced internally. Failed attempts retransmit after the
// response timeout plus an exponential backoff (see TransactionConfig).
// Each response is decoded from a stream (StreamTo) subscribed when the tag
// schedules it, so the system keeps no series from the query on.
//
// The transmission log the tag's windows read records only while one of
// the query's windows is open, from its NAV grant to its decode: every
// span the medium announced before the grant has left the air when the
// window starts, and none announced after the decode starts inside it.
// So the log stops once the transaction completes or runs out of
// attempts, while the engine still runs the whole retry horizon; a caller
// that decodes windows of its own afterwards calls EnableTxLog again.
func (s *System) RunQuery(q reader.Query, tagData uint64, tc TransactionConfig) (*QueryResult, error) {
	if q.BitRate == 0 {
		return nil, fmt.Errorf("core: query must advise a bit rate")
	}
	if tc.DownlinkBitDuration <= 0 || tc.ResponseTimeout <= 0 || tc.MaxAttempts <= 0 {
		return nil, fmt.Errorf("core: invalid transaction config %+v", tc)
	}
	open := 0 // windows granted and not yet decoded
	s.keepNoSeries()
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
			open++
			s.EnableTxLog()
			// Tag decodes at the end of the protected window.
			s.Eng.ScheduleAt(start+chunks[0].Reservation, func() {
				wr, derr := s.DecodeDownlinkWindow(start, chunks[0].Reservation, tc.DownlinkBitDuration)
				if open--; open == 0 {
					s.logEnabled = false
				}
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
				// The reader streams the response as it arrives and
				// decodes it after the response completes.
				dec, uerr := s.UplinkDecoder(float64(res.TagHeard.BitRate))
				if uerr != nil {
					return
				}
				sd, uerr := dec.NewStream(mod.Start(), downlink.PayloadBits, uplink.StreamCSI)
				if uerr != nil {
					return
				}
				sd.DecodeAtFlush()
				s.StreamTo(sd)
				s.Eng.ScheduleAt(mod.End()+0.05, func() {
					ur, uerr := sd.Flush()
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
