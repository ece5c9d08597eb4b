package eval

import (
	"fmt"
	"io"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/units"
	"repro/internal/uplink"
)

// Suite runs every experiment in the paper's evaluation and prints the
// tables.
type Suite struct {
	// Seed drives all randomness.
	Seed int64
	// Quick shrinks every experiment for smoke runs (~seconds instead of
	// minutes).
	Quick bool
	// Workers bounds the goroutines evaluating independent trials within
	// each experiment. 0 uses GOMAXPROCS; 1 forces serial execution.
	// Tables are bit-identical for every value.
	Workers int
	// Progress, when non-nil, receives a line as each experiment starts.
	Progress io.Writer
	// Metrics, when non-nil, accumulates pipeline metrics from the
	// instrumented experiments. Snapshots merge in trial-index order on
	// the suite's goroutine, so the aggregate is bit-identical for every
	// Workers value.
	Metrics *obs.Registry
	// Faults, when non-nil, injects the fault schedule into every trial
	// system (wbbench -faults; see internal/faults).
	Faults *faults.Schedule
}

// options returns the trial options for the suite's scale.
func (s Suite) options() Options {
	if s.Quick {
		return Options{Seed: s.Seed, Trials: 2, PayloadLen: 45, Workers: s.Workers, Obs: s.Metrics, Faults: s.Faults}
	}
	return Options{Seed: s.Seed, Trials: 20, PayloadLen: 90, Workers: s.Workers, Obs: s.Metrics, Faults: s.Faults}
}

// Experiment names one runnable experiment.
type Experiment struct {
	ID   string
	Name string
	Run  func() (*Table, error)
}

// Experiments returns the full list in paper order.
func (s Suite) Experiments() []Experiment {
	opt := s.options()
	tracePackets, pdfPackets := 3000, 42000
	fig17Bits := 200_000
	fpHours := 1.0
	fig19Seconds := 120.0
	fig20Opt := opt
	fig20Opt.Trials = (opt.Trials + 1) / 2
	if s.Quick {
		pdfPackets = 6000
		fig17Bits = 3000
		fpHours = 0.02
		fig19Seconds = 10
	}
	return []Experiment{
		{"fig3", "raw CSI trace at 5 cm", func() (*Table, error) {
			_, t, err := RawCSITrace(units.Centimeters(5), tracePackets, s.Seed)
			return t, err
		}},
		{"fig4", "PDF of normalized channel values", func() (*Table, error) {
			return NormalizedPDF(pdfPackets, s.Seed)
		}},
		{"fig5", "good sub-channels vs distance", func() (*Table, error) {
			return GoodSubchannels(opt)
		}},
		{"fig6", "raw CSI trace at 1 m", func() (*Table, error) {
			_, t, err := RawCSITrace(units.Meters(1), tracePackets, s.Seed+1)
			return t, err
		}},
		{"fig10a", "uplink BER vs distance (CSI)", func() (*Table, error) {
			return UplinkBERvsDistance(uplink.StreamCSI, opt)
		}},
		{"fig10b", "uplink BER vs distance (RSSI)", func() (*Table, error) {
			return UplinkBERvsDistance(uplink.StreamRSSI, opt)
		}},
		{"fig11", "frequency diversity ablation", func() (*Table, error) {
			return FrequencyDiversity(opt)
		}},
		{"fig12", "rate vs helper transmission rate", func() (*Table, error) {
			return RateVsHelperRate(opt)
		}},
		{"fig14", "helper locations", func() (*Table, error) {
			return HelperLocations(opt)
		}},
		{"fig15", "ambient traffic across the day", func() (*Table, error) {
			return AmbientTraffic(opt)
		}},
		{"fig16", "beacon-only operation", func() (*Table, error) {
			return BeaconOnly(opt)
		}},
		{"fig17", "downlink BER vs distance", func() (*Table, error) {
			return DownlinkBERObs(fig17Bits, s.Seed, s.Workers, s.Metrics)
		}},
		{"fig18", "downlink false positives", func() (*Table, error) {
			return FalsePositives(fpHours, s.Seed, s.Workers)
		}},
		{"fig19a", "Wi-Fi impact, tag at 5 cm", func() (*Table, error) {
			return WiFiImpact(units.Centimeters(5), fig19Seconds, s.Seed, s.Workers)
		}},
		{"fig19b", "Wi-Fi impact, tag at 30 cm", func() (*Table, error) {
			return WiFiImpact(units.Centimeters(30), fig19Seconds, s.Seed, s.Workers)
		}},
		{"fig20", "correlation length vs distance", func() (*Table, error) {
			return CorrelationRange(fig20Opt)
		}},
		{"power", "tag power budget (§6)", func() (*Table, error) {
			return PowerBudget(), nil
		}},
		{"abl-combine", "ablation: combining rule", func() (*Table, error) {
			return CombiningAblation(opt)
		}},
		{"abl-decide", "ablation: decision rule", func() (*Table, error) {
			return DecisionAblation(opt)
		}},
		{"abl-bin", "ablation: binning under bursts", func() (*Table, error) {
			return BinningAblation(opt)
		}},
		{"abl-thresh", "ablation: downlink threshold", func() (*Table, error) {
			return ThresholdAblation(fig17Bits/4, s.Seed, s.Workers)
		}},
		{"inventory", "multi-tag inventory (§2 extension)", func() (*Table, error) {
			return MultiTagInventory(opt)
		}},
		{"channels", "uplink across Wi-Fi channels (§7.1 claim)", func() (*Table, error) {
			return ChannelSweep(opt)
		}},
		{"ack", "one-bit ACK bursts (§4.1 claim)", func() (*Table, error) {
			return AckDetection(opt)
		}},
		{"duty", "duty-cycled TV-harvesting sensor (§6 extension)", func() (*Table, error) {
			return DutyCycledSensor(s.Seed)
		}},
		{"mac", "802.11 DCF substrate validation", func() (*Table, error) {
			secs := 5.0
			if s.Quick {
				secs = 1
			}
			return MACValidation(secs, s.Seed)
		}},
		{"faults", "transaction resilience under injected faults", func() (*Table, error) {
			return FaultResilience(opt)
		}},
		{"stream", "streaming decode: live vs batch equivalence", func() (*Table, error) {
			return StreamEquivalence(opt)
		}},
	}
}

// Run executes the whole suite, printing each table to w. Unknown ids in
// only restrict the run; an empty only runs everything.
func (s Suite) Run(w io.Writer, only map[string]bool) error {
	for _, exp := range s.Experiments() {
		if len(only) > 0 && !only[exp.ID] {
			continue
		}
		if s.Progress != nil {
			fmt.Fprintf(s.Progress, "running %s: %s...\n", exp.ID, exp.Name)
		}
		start := time.Now()
		table, err := exp.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		if s.Progress != nil {
			fmt.Fprintf(s.Progress, "  done in %v\n", time.Since(start).Round(time.Millisecond))
		}
		if err := table.Fprint(w); err != nil {
			return err
		}
	}
	return nil
}
