package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/capture"
	"repro/internal/csi"
)

func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name    string
		tagDist float64
		packets int
		what    string
	}{
		{"zero packets", 5, 0, "trace"},
		{"negative packets", 5, -3, "trace"},
		{"zero distance", 0, 100, "trace"},
		{"negative distance", -2, 100, "frames"},
		{"unknown what", 5, 100, "spectrogram"},
		{"retired what", 5, 100, "csi"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(&out, tc.tagDist, tc.packets, tc.what, 1, "", "")
			if err == nil {
				t.Fatalf("run(%g, %d, %q) succeeded, want error", tc.tagDist, tc.packets, tc.what)
			}
			if out.Len() != 0 {
				t.Errorf("rejected run still wrote %d bytes of output", out.Len())
			}
		})
	}
}

// TestRunEmitsTrace pins the trace output: a "# frame " header comment
// with the tag's on-air frame bits, then a wbtrace that reads back
// through csi.ReadSeries and covers the whole frame.
func TestRunEmitsTrace(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 5, 50, "trace", 1, "", ""); err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(out.String(), "\n")
	// Preamble (Barker 13), the alternating 5-bit payload, postamble.
	want := "# frame " + "1111100110101" + "10101" + "0000011001010"
	if first != want {
		t.Errorf("header line %q, want %q", first, want)
	}
	s, err := csi.ReadSeries(&out)
	if err != nil {
		t.Fatal(err)
	}
	if s.Antennas() != 3 || s.Subchannels() != 30 {
		t.Errorf("trace shape %d×%d, want 3×30", s.Antennas(), s.Subchannels())
	}
	// A 5-bit payload's 31-bit frame runs from 1.0 s to 1.31 s at 100 bps.
	if s.Len() == 0 || s.Measurements[s.Len()-1].Timestamp < 1.31 {
		t.Errorf("%d measurements do not cover the frame", s.Len())
	}
}

func TestFramesRoundTripThroughSummarize(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 5, 50, "frames", 1, "", ""); err != nil {
		t.Fatal(err)
	}
	recs, err := capture.NewReader(bytes.NewReader(out.Bytes())).ReadAll()
	if err != nil {
		t.Fatalf("frames output did not parse back: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("frames output holds no records")
	}

	path := filepath.Join(t.TempDir(), "trace.wbt")
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var summary bytes.Buffer
	if err := summarizeFile(&summary, path); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(summary.String(), "records:") {
		t.Errorf("summary missing record count:\n%s", summary.String())
	}
}

func TestSummarizeFileErrors(t *testing.T) {
	var out bytes.Buffer
	if err := summarizeFile(&out, filepath.Join(t.TempDir(), "missing.wbt")); err == nil {
		t.Error("missing file should error")
	}
	garbled := filepath.Join(t.TempDir(), "garbled.wbt")
	if err := os.WriteFile(garbled, []byte("this is not a capture"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := summarizeFile(&out, garbled); err == nil {
		t.Error("garbled capture should error")
	}
}
