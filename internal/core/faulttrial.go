package core

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/reader"
	"repro/internal/wifi"
)

// This file runs full query/response transactions as sweepable trials —
// the unit of work behind the fault-resilience experiment (retransmission
// curves under a lossy channel, like the paper's §4.1 analysis but on an
// impaired medium).

// TransactionTrialSpec configures one full transaction trial.
type TransactionTrialSpec struct {
	// Config is the system config (seed, geometry, fault schedule).
	Config Config
	// HelperPacketsPerSecond is the CBR illumination rate.
	HelperPacketsPerSecond float64
	// BitRate the query advises for the tag's response.
	BitRate float64
	// Data is the tag's 48-bit response payload.
	Data uint64
	// Txn tunes the transaction; the zero value takes
	// DefaultTransactionConfig.
	Txn TransactionConfig
	// Warmup is the traffic lead-in before the query starts (default
	// 0.3 s, enough context for the conditioning window).
	Warmup float64
}

// TransactionTrialResult is one transaction trial's outcome.
type TransactionTrialResult struct {
	// Result is the transaction outcome, including the fault verdict.
	Result *QueryResult
	// Injected is the injector's final tally for the whole trial
	// (warm-up included), zero without a fault schedule.
	Injected faults.Tally
	// Metrics is the trial System's metrics snapshot. Aggregate across
	// trials with obs.Registry.Merge.
	Metrics *obs.Snapshot
}

// RunTransactionTrial builds a system, starts helper traffic, runs one
// query/response transaction, and reports the outcome with metrics.
func RunTransactionTrial(spec TransactionTrialSpec) (*TransactionTrialResult, error) {
	if spec.BitRate <= 0 {
		return nil, fmt.Errorf("core: transaction trial needs a positive bit rate, got %v", spec.BitRate)
	}
	if spec.HelperPacketsPerSecond <= 0 {
		return nil, fmt.Errorf("core: helper rate must be positive, got %v", spec.HelperPacketsPerSecond)
	}
	txn := spec.Txn
	if txn.MaxAttempts == 0 {
		txn = DefaultTransactionConfig()
	}
	warmup := spec.Warmup
	if warmup <= 0 {
		warmup = 0.3
	}
	sys, err := NewSystem(spec.Config)
	if err != nil {
		return nil, err
	}
	// RunQuery streams and drops the series, so the warm-up's captures
	// take the skip path instead of filling one.
	sys.keepNoSeries()
	if err := (&wifi.CBRSource{
		Station:  sys.Helper,
		Dst:      wifi.MAC{0x02, 0, 0, 0, 0, 9},
		Payload:  200,
		Interval: 1 / spec.HelperPacketsPerSecond,
	}).Start(); err != nil {
		return nil, err
	}
	sys.Run(warmup)
	q := reader.Query{Command: reader.CmdRead, TagID: 1, BitRate: uint16(spec.BitRate)}
	res, err := sys.RunQuery(q, spec.Data, txn)
	if err != nil {
		return nil, err
	}
	return &TransactionTrialResult{
		Result:   res,
		Injected: sys.FaultInjector().Tally(),
		Metrics:  sys.Metrics().Snapshot(),
	}, nil
}
