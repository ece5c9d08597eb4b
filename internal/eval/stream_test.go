package eval

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/csi"
	"repro/internal/faults"
	"repro/internal/uplink"
)

// TestStreamEquivalenceExperiment runs the live-vs-batch validation at
// smoke scale and requires every operating point to come back identical:
// the experiment exists to certify the refactor, so any "false" cell is a
// regression, not a finding to report.
func TestStreamEquivalenceExperiment(t *testing.T) {
	tab, err := StreamEquivalence(Options{Seed: 77, Trials: 2, PayloadLen: 45})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 { // 3 distances × 2 modes
		t.Fatalf("expected 6 rows, got %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[4] != "0" || row[5] != "true" {
			t.Errorf("stream/batch divergence at %s (%s): %d mismatches, identical=%s",
				row[0], row[1], mustInt(t, row[4]), row[5])
		}
	}
}

func mustInt(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			t.Fatalf("not a count: %q", s)
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// TestStreamFrameReference holds the stream experiment's batch reference,
// which records only the captures of the frame through the first one at
// or past its end (recordFrame), to the batch decode of the whole trace:
// at every point of the experiment, clean and under chaos, the two must
// decode DeepEqual, and the reference frame must close on a push. Each
// decode gets a decoder of its own with no fault injector, so neither
// draws for the other.
func TestStreamFrameReference(t *testing.T) {
	chaos, err := faults.Profile("chaos", 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 77, Trials: 2, PayloadLen: 45}.withDefaults()
	for _, sched := range []*faults.Schedule{nil, chaos} {
		for _, p := range streamPoints() {
			for trial := range opt.Trials {
				name := fmt.Sprintf("%.0fcm/%v/trial%d/faults=%v", p.cm, p.mode, trial, sched != nil)
				sys, mod, err := streamTrial(opt, p, trial, sched)
				if err != nil {
					t.Fatal(err)
				}
				dec, err := uplink.NewDecoder(uplink.DefaultConfig(1.0 / streamBitRate))
				if err != nil {
					t.Fatal(err)
				}
				sd, err := dec.NewStream(mod.Start(), opt.PayloadLen, p.mode)
				if err != nil {
					t.Fatal(err)
				}
				var full, frame csi.Series
				sys.OnMeasurement(func(m csi.Measurement) { full.Append(m.Clone()) })
				sys.OnMeasurement(recordFrame(&frame, sd.Start(), sd.End()))
				sys.Run(mod.End() + 0.5)
				if frame.Len() >= full.Len() {
					t.Fatalf("%s: the frame reference holds %d captures, the whole trace %d", name, frame.Len(), full.Len())
				}
				// The reference frame must close on a push, as the whole
				// trace's does, not on the Flush of a truncated trace.
				for _, m := range frame.Measurements {
					if _, err := sd.Push(m); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				if !sd.Done() {
					t.Errorf("%s: the frame reference's %d captures do not close the frame on a push", name, frame.Len())
				}
				decode := func(s *csi.Series) (*uplink.Result, error) {
					d, err := uplink.NewDecoder(uplink.DefaultConfig(1.0 / streamBitRate))
					if err != nil {
						t.Fatal(err)
					}
					if p.mode == uplink.StreamRSSI {
						return d.DecodeRSSI(s, mod.Start(), opt.PayloadLen)
					}
					return d.DecodeCSI(s, mod.Start(), opt.PayloadLen)
				}
				want, wantErr := decode(&full)
				got, gotErr := decode(&frame)
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
					t.Errorf("%s: the frame reference decodes %+v (%v), the whole trace %+v (%v)", name, got, gotErr, want, wantErr)
				}
			}
		}
	}
}
