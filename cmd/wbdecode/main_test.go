package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/csi"
	"repro/internal/tag"
	"repro/internal/uplink"
)

// buildTrace synthesizes a small but decodable wbtrace: 2 antennas × 4
// sub-channels, 1000 pkt/s, a framed transmission of alternating payload
// bits starting at t=1.0 at 100 bps. CSI channel (0,1) and the RSSI of
// antenna 0 carry the modulation. withFrame writes the frame bits as the
// "# frame " header comment, cmd/wbtrace's ground truth.
func buildTrace(t *testing.T, withFrame bool) (string, []bool) {
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
		// Deterministic dither so conditioning has texture.
		dither := 0.02 * math.Sin(float64(i)*0.7)
		m := csi.Measurement{
			Timestamp: ts,
			RSSI:      []float64{30 + 2*bit + dither, 28 + dither},
			CSI:       [][]float64{make([]float64, 4), make([]float64, 4)},
		}
		for a := range m.CSI {
			for k := range m.CSI[a] {
				m.CSI[a][k] = 10 + dither
			}
		}
		m.CSI[0][1] += 2 * bit // the modulated channel
		s.Append(m)
	}
	var sb strings.Builder
	if withFrame {
		sb.WriteString(framePrefix + bitString(frame) + "\n")
	}
	if err := csi.WriteSeries(&sb, &s); err != nil {
		t.Fatal(err)
	}
	return sb.String(), payload
}

// headerLines is the number of lines buildTrace writes before the first
// row when withFrame is set: the frame comment, the magic and the dims.
const headerLines = 3

func TestRunDecodesCSITrace(t *testing.T) {
	trace, _ := buildTrace(t, true)
	var out strings.Builder
	if err := run(strings.NewReader(trace), &out, 100, 1.0, 20, "csi", false); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "10101010101010101010") {
		t.Errorf("decoded bits missing or wrong:\n%s", text)
	}
	if !strings.Contains(text, "ground truth BER:    0/20") {
		t.Errorf("ground truth BER not clean:\n%s", text)
	}
}

func TestRunDecodesRSSITrace(t *testing.T) {
	trace, _ := buildTrace(t, true)
	var out strings.Builder
	if err := run(strings.NewReader(trace), &out, 100, 1.0, 20, "rssi", false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "10101010101010101010") ||
		!strings.Contains(out.String(), "ground truth BER:    0/20") {
		t.Errorf("RSSI decode wrong:\n%s", out.String())
	}
}

func TestRunInfersPayloadLength(t *testing.T) {
	trace, _ := buildTrace(t, false)
	var out strings.Builder
	if err := run(strings.NewReader(trace), &out, 100, 1.0, 0, "csi", false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "payload bits:") {
		t.Errorf("inferred run produced no output:\n%s", out.String())
	}
	// Without the frame comment there is no ground-truth line.
	if strings.Contains(out.String(), "ground truth") {
		t.Error("ground truth printed without a frame comment")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(strings.NewReader("a,b\n"), &strings.Builder{}, 100, 1, 10, "csi", false); err == nil {
		t.Error("input without a wbtrace header should error")
	}
	if err := run(strings.NewReader("wbtrace 1\ndims 1 1\n"), &strings.Builder{}, 100, 1, 10, "csi", false); err == nil {
		t.Error("empty trace should error")
	}
	trace, _ := buildTrace(t, true)
	if err := run(strings.NewReader(trace), &strings.Builder{}, 0, 1, 10, "csi", false); err == nil {
		t.Error("zero rate should error")
	}
	if err := run(strings.NewReader(trace), &strings.Builder{}, 100, 1, 10, "nope", false); err == nil {
		t.Error("unknown mode should error")
	}
	if err := run(strings.NewReader("# frame 1x\n"+trace), &strings.Builder{}, 100, 1, 10, "csi", false); err == nil {
		t.Error("malformed frame comment should error")
	}
}

// TestRunFollowPrintsBitsBeforeSummary pins the -follow contract: every
// payload bit prints as a live `bit N = B` line (emitted at frame close,
// before the trace ends) ahead of the summary block, and the live bits
// agree with the summary's bit string.
func TestRunFollowPrintsBitsBeforeSummary(t *testing.T) {
	trace, payload := buildTrace(t, true)
	var out strings.Builder
	if err := run(strings.NewReader(trace), &out, 100, 1.0, 20, "csi", true); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for i, b := range payload {
		bit := 0
		if b {
			bit = 1
		}
		line := fmt.Sprintf("bit %3d = %d", i, bit)
		if !strings.Contains(text, line) {
			t.Errorf("live output missing %q:\n%s", line, text)
		}
	}
	lastLive := strings.LastIndex(text, "bit  19")
	summary := strings.Index(text, "measurements:")
	if lastLive == -1 || summary == -1 || lastLive > summary {
		t.Errorf("live bits should print before the summary:\n%s", text)
	}
}

// TestRunFollowRequiresPayload pins the flag interaction: inferring the
// payload length needs the whole trace, which contradicts -follow.
func TestRunFollowRequiresPayload(t *testing.T) {
	trace, _ := buildTrace(t, false)
	err := run(strings.NewReader(trace), &strings.Builder{}, 100, 1.0, 0, "csi", true)
	if err == nil || !strings.Contains(err.Error(), "-follow requires") {
		t.Errorf("follow without payload: got %v", err)
	}
}

// TestRunFollowTruncatedTrace pins the flush-time tail: when the trace
// ends inside the frame the bits only exist at Flush, and -follow still
// prints every one of them.
func TestRunFollowTruncatedTrace(t *testing.T) {
	trace, _ := buildTrace(t, true)
	// Keep the header plus rows up to t=1.25s: mid-frame for a 20-bit
	// payload (frame spans 1.0–1.46s).
	lines := strings.Split(trace, "\n")
	trunc := lines[:headerLines+1250]
	var out strings.Builder
	if err := run(strings.NewReader(strings.Join(trunc, "\n")), &out, 100, 1.0, 20, "csi", true); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "bit "); n != 20 {
		t.Errorf("truncated follow printed %d bit lines, want 20:\n%s", n, out.String())
	}
}

// TestStreamingMatchesMaterialized pins the refactor's equivalence at the
// CLI layer: the explicit-payload streaming path and the legacy
// materialized decode print identical summaries.
func TestStreamingMatchesMaterialized(t *testing.T) {
	trace, payload := buildTrace(t, true)
	var streamed strings.Builder
	if err := run(strings.NewReader(trace), &streamed, 100, 1.0, 20, "csi", false); err != nil {
		t.Fatal(err)
	}
	s, err := csi.ReadSeries(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2000 {
		t.Fatalf("parsed %d rows", s.Len())
	}
	// The inference path materializes; with this trace span it infers a
	// payload of int((1.999-1.0)/0.01)-26 = 73 bits, so compare against a
	// batch decode at the explicit length instead.
	var batchOut strings.Builder
	func() {
		dec, err := uplink.NewDecoder(uplink.DefaultConfig(0.01))
		if err != nil {
			t.Fatal(err)
		}
		res, err := dec.DecodeCSI(s, 1.0, 20)
		if err != nil {
			t.Fatal(err)
		}
		summarize(&batchOut, dec, res, s.Len(), 20, payload)
	}()
	if streamed.String() != batchOut.String() {
		t.Errorf("streamed CLI output differs from materialized decode:\n--- streamed ---\n%s--- batch ---\n%s",
			streamed.String(), batchOut.String())
	}
}

func TestParseTraceShapes(t *testing.T) {
	trace, payload := buildTrace(t, true)
	rr, err := csi.NewRowReader(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	truth, err := truthPayload(rr.Comments())
	if err != nil || !slices.Equal(truth, payload) {
		t.Errorf("frame comment gave payload %v, %v; want %v", truth, err, payload)
	}
	s, err := rr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2000 {
		t.Errorf("parsed %d measurements", s.Len())
	}
	if s.Antennas() != 2 || s.Subchannels() != 4 {
		t.Errorf("shape = (%d, %d)", s.Antennas(), s.Subchannels())
	}
}

// runOnPipe writes data into a real pipe (cut exactly where the producer
// "died"), closes the write end, and runs wbdecode's streaming -follow
// path on the read end — the shape of `producer | wbdecode -follow` when
// the producer is killed. It returns the output and run's error, whose
// nil-ness is what decides the process exit status in main.
func runOnPipe(t *testing.T, data string, payload int) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	go func() {
		defer w.Close()
		_, _ = io.WriteString(w, data)
	}()
	var out strings.Builder
	runErr := run(r, &out, 100, 1.0, payload, "csi", true)
	return out.String(), runErr
}

// TestRunFollowPipeTruncation pins the -follow contract on a pipe whose
// producer dies at every interesting point relative to the frame window
// (1.0s–1.46s at 100 bps × 20 payload bits, rows every 1 ms):
//
//   - before the frame: nothing to decode — error exit, no bit lines;
//   - inside the frame: clean row boundary is EOF — Flush salvages the
//     partial frame, prints all 20 bits and a summary, exit 0;
//   - inside the frame, cut mid-row: same salvage output, but the
//     truncation is reported so the exit status is nonzero;
//   - after the frame: bits were already emitted live at frame close —
//     full output, exit 0.
func TestRunFollowPipeTruncation(t *testing.T) {
	trace, _ := buildTrace(t, true)
	lines := strings.Split(trace, "\n")
	rows := func(n int) string { return strings.Join(lines[:headerLines+n], "\n") }

	cases := []struct {
		name      string
		data      string
		wantErr   bool
		truncated bool
		wantBits  int
	}{
		{"before frame", rows(800), true, false, 0},
		{"inside frame", rows(1250), false, false, 20},
		{"inside frame mid-row", rows(1250) + "\n" + lines[headerLines+1250][:10], true, true, 20},
		{"after frame", rows(1600), false, false, 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := runOnPipe(t, tc.data, 20)
			if (err != nil) != tc.wantErr {
				t.Fatalf("run error = %v, want error: %v\n%s", err, tc.wantErr, out)
			}
			if tc.truncated && !errors.Is(err, csi.ErrTruncatedRow) {
				t.Errorf("mid-row cut should report ErrTruncatedRow, got %v", err)
			}
			if n := strings.Count(out, "bit "); n != tc.wantBits {
				t.Errorf("printed %d bit lines, want %d:\n%s", n, tc.wantBits, out)
			}
			// Whenever any bits decoded, the Flush summary must follow.
			if tc.wantBits > 0 && !strings.Contains(out, "measurements:") {
				t.Errorf("salvaged bits missing their summary:\n%s", out)
			}
		})
	}
}

// TestRunBERCountsUncoveredBits pins the ground truth of a trace cut
// inside the frame: the truth comes from the header's frame bits, not
// from the rows, so a payload bit no row covers is still scored. The cut
// at t=1.25 s leaves payload bits 12–19 (frame bits 25–32) without a
// row; the decoder reads each as 0, so their four 1-bits are errors.
func TestRunBERCountsUncoveredBits(t *testing.T) {
	trace, payload := buildTrace(t, true)
	lines := strings.Split(trace, "\n")
	cut := strings.Join(lines[:headerLines+1250], "\n")
	var out strings.Builder
	if err := run(strings.NewReader(cut), &out, 100, 1.0, 20, "csi", false); err != nil {
		t.Fatal(err)
	}
	uncoveredOnes := 0
	for _, b := range payload[12:] {
		if b {
			uncoveredOnes++
		}
	}
	want := fmt.Sprintf("ground truth BER:    %d/20", uncoveredOnes)
	if !strings.Contains(out.String(), want) {
		t.Errorf("want %q in:\n%s", want, out.String())
	}
}
