package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/csi"
	"repro/internal/tag"
)

// buildTrace synthesizes the same small decodable wbtrace the wbdecode
// tests use: 2 antennas × 4 sub-channels at 1000 pkt/s, a framed
// transmission of 20 alternating payload bits at 100 bps starting at
// t=1.0, with the modulation carried on CSI channel (0,1).
func buildTrace(t *testing.T) string {
	t.Helper()
	payload := make([]bool, 20)
	for i := range payload {
		payload[i] = i%2 == 0
	}
	frame := tag.FrameBits(payload)
	var s csi.Series
	const bitDur = 0.01
	for i := 0; i < 2000; i++ {
		ts := float64(i) * 0.001
		bit := 0.0
		j := int((ts - 1.0) / bitDur)
		if j >= 0 && j < len(frame) && frame[j] {
			bit = 1
		}
		dither := 0.02 * math.Sin(float64(i)*0.7)
		m := csi.Measurement{
			Timestamp: ts,
			RSSI:      []float64{30 + dither, 28 + dither},
			CSI:       [][]float64{make([]float64, 4), make([]float64, 4)},
		}
		for a := range m.CSI {
			for k := range m.CSI[a] {
				m.CSI[a][k] = 10 + dither
			}
		}
		m.CSI[0][1] += 2 * bit
		s.Append(m)
	}
	var sb strings.Builder
	if err := csi.WriteSeries(&sb, &s); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// baseConfig is the self-hosted run every test starts from.
func baseConfig() loadConfig {
	return loadConfig{sessions: 8, rate: 100, start: 1.0, payload: 20, mode: "csi"}
}

// TestRunSelfHostedEquivalence is the replay loop against an in-process
// server: every session must come back byte-identical to batch.
func TestRunSelfHostedEquivalence(t *testing.T) {
	trace := buildTrace(t)
	var out strings.Builder
	if err := run(strings.NewReader(trace), &out, baseConfig()); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "8/8 sessions byte-identical") {
		t.Errorf("output missing the equivalence summary:\n%s", out.String())
	}
}

func TestRunFlagValidation(t *testing.T) {
	mod := func(f func(*loadConfig)) loadConfig {
		cfg := baseConfig()
		f(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  loadConfig
		in   string
	}{
		{"missing payload", mod(func(c *loadConfig) { c.payload = 0 }), ""},
		{"non-positive n", mod(func(c *loadConfig) { c.sessions = 0 }), ""},
		{"unknown mode", mod(func(c *loadConfig) { c.mode = "fsk" }), ""},
		{"headerless trace", baseConfig(), "a,b\n"},
		{"empty trace", baseConfig(), "wbtrace 1\ndims 2 4\n"},
		{"bad chaos spec", mod(func(c *loadConfig) { c.chaos = "no-such-profile" }), ""},
	}
	for _, tc := range cases {
		if err := run(strings.NewReader(tc.in), &strings.Builder{}, tc.cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestChaosResumeEquivalence is the tentpole acceptance check: under the
// wire-flaky profile — which cuts every lane's first connection in both
// directions — every resumed stream must still decode byte-identical to
// batch, at one worker and at eight. runLoad's per-lane stats prove the
// faults actually fired: every lane was cut and resumed at least once.
func TestChaosResumeEquivalence(t *testing.T) {
	trace := buildTrace(t)
	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := baseConfig()
			cfg.workers = workers
			cfg.chaos = "wire-flaky"
			cfg.seed = 7
			var out strings.Builder
			stats, err := runLoad(strings.NewReader(trace), &out, cfg)
			if err != nil {
				t.Fatalf("chaos run: %v\noutput:\n%s", err, out.String())
			}
			if !strings.Contains(out.String(), "8/8 sessions byte-identical") {
				t.Fatalf("output missing the equivalence summary:\n%s", out.String())
			}
			for lane, st := range stats {
				if st.Cuts == 0 {
					t.Errorf("lane %d was never cut; wire-flaky must cut every connection", lane)
				}
				if st.Resumes == 0 {
					t.Errorf("lane %d never resumed; its stream should have been cut mid-flight", lane)
				}
				if st.Attempts < 2 {
					t.Errorf("lane %d finished in %d attempt(s); expected reconnects", lane, st.Attempts)
				}
			}
		})
	}
}

// TestChaosMetricsDeterministic pins the reproducibility contract: the
// same (seed, spec, trace) produce a byte-identical -metrics snapshot
// regardless of worker count — every counter in it is a per-lane
// function of the fault plan, not of scheduling.
func TestChaosMetricsDeterministic(t *testing.T) {
	trace := buildTrace(t)
	dir := t.TempDir()
	snapshots := make([][]byte, 0, 3)
	for i, workers := range []int{1, 8, 8} {
		cfg := baseConfig()
		cfg.workers = workers
		cfg.chaos = "wire-flaky"
		cfg.seed = 42
		cfg.metrics = filepath.Join(dir, fmt.Sprintf("metrics-%d.json", i))
		var out strings.Builder
		if err := run(strings.NewReader(trace), &out, cfg); err != nil {
			t.Fatalf("chaos run %d: %v\noutput:\n%s", i, err, out.String())
		}
		blob, err := os.ReadFile(cfg.metrics)
		if err != nil {
			t.Fatal(err)
		}
		snapshots = append(snapshots, blob)
	}
	if string(snapshots[0]) != string(snapshots[1]) {
		t.Errorf("metrics differ between workers=1 and workers=8:\n%s\n---\n%s",
			snapshots[0], snapshots[1])
	}
	if string(snapshots[1]) != string(snapshots[2]) {
		t.Errorf("metrics differ between two identical workers=8 runs:\n%s\n---\n%s",
			snapshots[1], snapshots[2])
	}
	for _, want := range []string{"wbload.resumes", "chaos.cuts.executed", "chaos.splits.executed"} {
		if !strings.Contains(string(snapshots[0]), want) {
			t.Errorf("metrics snapshot missing %s:\n%s", want, snapshots[0])
		}
	}
}

// TestChaosInlineSchedule drives an inline schedule through the flag
// grammar end to end: a single certain early cut still yields a
// byte-identical decode.
func TestChaosInlineSchedule(t *testing.T) {
	trace := buildTrace(t)
	cfg := baseConfig()
	cfg.sessions = 2
	cfg.chaos = "burst@0:1x1;csidrop@0:20x0.5"
	cfg.seed = 3
	var out strings.Builder
	stats, err := runLoad(strings.NewReader(trace), &out, cfg)
	if err != nil {
		t.Fatalf("inline chaos run: %v\noutput:\n%s", err, out.String())
	}
	for lane, st := range stats {
		if st.Cuts == 0 {
			t.Errorf("lane %d survived a certain cut window uncut", lane)
		}
	}
}
