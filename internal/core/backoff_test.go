package core

// Backoff timing tests: the transaction layer promises bounded exponential
// pacing between retransmissions. These tests pin the arithmetic of
// backoffAfter and then verify, from the medium's record of a failing
// transaction, that the reader actually waited on the air — attempt
// spacing is timeout plus the scheduled backoff, not a hot retry loop.

import (
	"math"
	"testing"

	"repro/internal/reader"
	"repro/internal/wifi"
)

// readerCTSStarts records the start of every CTS_to_SELF the reader puts
// on air from now on.
func readerCTSStarts(sys *System) *[]float64 {
	var starts []float64
	sys.Medium.AddListener(func(tx wifi.Transmission) {
		if tx.Station == sys.Reader && tx.Frame.Header.Type == wifi.TypeCTSToSelf {
			starts = append(starts, tx.Start)
		}
	})
	return &starts
}

func TestBackoffAfterBounds(t *testing.T) {
	tc := TransactionConfig{BackoffBase: 0.025, BackoffFactor: 2, BackoffMax: 0.4, MaxAttempts: 8}
	cases := []struct {
		attempt int
		want    float64
	}{
		{0, 0},     // never ran: no wait
		{-1, 0},    // nonsense attempt: no wait
		{1, 0.025}, // first failure: base
		{2, 0.05},  // doubled
		{3, 0.1},   // doubled again
		{5, 0.4},   // 0.025*2^4 = 0.4, exactly at the cap
		{6, 0.4},   // capped
		{100, 0.4}, // capped, no overflow blowup
	}
	for _, c := range cases {
		if got := tc.backoffAfter(c.attempt); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("backoffAfter(%d) = %v, want %v", c.attempt, got, c.want)
		}
	}
	if got := (TransactionConfig{}).backoffAfter(3); got != 0 {
		t.Errorf("zero base must disable backoff, got %v", got)
	}
	// Factor below 1 falls back to the default doubling rather than a
	// shrinking (effectively immediate) retry ladder.
	low := TransactionConfig{BackoffBase: 0.01, BackoffFactor: 0.5}
	if got := low.backoffAfter(2); math.Abs(got-0.02) > 1e-12 {
		t.Errorf("sub-1 factor: backoffAfter(2) = %v, want doubled 0.02", got)
	}
	// Zero max means uncapped growth.
	uncapped := TransactionConfig{BackoffBase: 0.1, BackoffFactor: 2}
	if got := uncapped.backoffAfter(6); math.Abs(got-3.2) > 1e-12 {
		t.Errorf("uncapped: backoffAfter(6) = %v, want 3.2", got)
	}
}

func TestMaxBackoffTotalSumsTheLadder(t *testing.T) {
	tc := TransactionConfig{BackoffBase: 0.05, BackoffFactor: 2, BackoffMax: 0.4, MaxAttempts: 4}
	want := 0.05 + 0.1 + 0.2 // waits after attempts 1..3
	if got := tc.maxBackoffTotal(); math.Abs(got-want) > 1e-12 {
		t.Errorf("maxBackoffTotal = %v, want %v", got, want)
	}
}

// TestRunQueryBackoffPacesRetries runs a transaction that cannot succeed
// (tag far out of downlink range) and checks the on-air spacing of the
// reader's CTS_to_SELF reservations: attempt i+1 must start no earlier
// than attempt i's deadline plus the exponential wait, and not much later
// (only MAC-level contention may add delay).
func TestRunQueryBackoffPacesRetries(t *testing.T) {
	sys, err := NewSystem(Config{Seed: 40, TagReaderDistance: 8})
	if err != nil {
		t.Fatal(err)
	}
	cts := readerCTSStarts(sys)
	(&wifi.CBRSource{Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 0.001}).Start()
	sys.Run(0.2)
	tc := DefaultTransactionConfig()
	tc.MaxAttempts = 3
	tc.ResponseTimeout = 1.0
	tc.BackoffBase = 0.05
	tc.BackoffFactor = 2
	tc.BackoffMax = 0.4
	res, err := sys.RunQuery(reader.Query{Command: reader.CmdRead, BitRate: 100}, 0x1234, tc)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResponseOK || res.Attempts != tc.MaxAttempts {
		t.Fatalf("expected %d failed attempts, got ok=%v attempts=%d",
			tc.MaxAttempts, res.ResponseOK, res.Attempts)
	}

	ctsStarts := *cts
	if len(ctsStarts) != tc.MaxAttempts {
		t.Fatalf("logged %d CTS_to_SELF reservations, want one per attempt (%d)",
			len(ctsStarts), tc.MaxAttempts)
	}
	// The MAC may delay a queued CTS by contention and in-flight traffic,
	// but never by more than a handful of frame airtimes at 1000 pkt/s.
	const macSlack = 0.02
	var wantTotal float64
	for i := 1; i < len(ctsStarts); i++ {
		wait := tc.backoffAfter(i)
		wantTotal += wait
		gap := ctsStarts[i] - ctsStarts[i-1]
		lo := tc.ResponseTimeout + wait
		if gap < lo {
			t.Errorf("attempt %d started %.4fs after attempt %d, want at least timeout+backoff = %.4fs",
				i+1, gap, i, lo)
		}
		if gap > lo+macSlack {
			t.Errorf("attempt %d started %.4fs after attempt %d, want under %.4fs (timeout+backoff+MAC slack)",
				i+1, gap, i, lo+macSlack)
		}
	}
	if math.Abs(res.BackoffTotal-wantTotal) > 1e-12 {
		t.Errorf("BackoffTotal = %v, want the sum of scheduled waits %v", res.BackoffTotal, wantTotal)
	}
}

// TestRunQueryZeroBaseDisablesBackoff keeps the pre-backoff behaviour
// reachable: with BackoffBase zero, retries fire exactly at the timeout
// and the result reports no backoff spent.
func TestRunQueryZeroBaseDisablesBackoff(t *testing.T) {
	sys, err := NewSystem(Config{Seed: 41, TagReaderDistance: 8})
	if err != nil {
		t.Fatal(err)
	}
	cts := readerCTSStarts(sys)
	(&wifi.CBRSource{Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 0.001}).Start()
	sys.Run(0.2)
	tc := DefaultTransactionConfig()
	tc.MaxAttempts = 2
	tc.ResponseTimeout = 1.0
	tc.BackoffBase = 0
	res, err := sys.RunQuery(reader.Query{Command: reader.CmdRead, BitRate: 100}, 0x1, tc)
	if err != nil {
		t.Fatal(err)
	}
	if res.BackoffTotal != 0 {
		t.Errorf("BackoffTotal = %v with backoff disabled, want 0", res.BackoffTotal)
	}
	ctsStarts := *cts
	if len(ctsStarts) != 2 {
		t.Fatalf("logged %d reservations, want 2", len(ctsStarts))
	}
	gap := ctsStarts[1] - ctsStarts[0]
	if gap < tc.ResponseTimeout || gap > tc.ResponseTimeout+0.02 {
		t.Errorf("retry gap %v, want the bare timeout %v (+MAC slack)", gap, tc.ResponseTimeout)
	}
}
