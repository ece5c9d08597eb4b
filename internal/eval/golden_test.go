package eval

// Golden-trace regression tests: two recorded CSI/RSSI traces are checked
// into testdata/ in the wbtrace format, and the decoder's exact output on
// them — decoded bits, bit errors, detection, correlation, selected
// sub-channels — is pinned byte for byte. Any change to the conditioning,
// binning, combining, or decision logic that alters a decoded trace shows
// up here as a readable diff, not as a statistical drift in a sweep.
//
// Regenerate after an intentional pipeline change with:
//
//	go test ./internal/eval/ -run TestGoldenTraces -update

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/tag"
	"repro/internal/units"
	"repro/internal/uplink"
	"repro/internal/wifi"
)

var updateGolden = flag.Bool("update", false, "regenerate golden traces and expectations")

// goldenTxStart is when the recorded transmissions begin (matching the
// warm-up used by core.RunUplinkTrial).
const goldenTxStart = 1.0

// goldenSpec pins every parameter needed to regenerate and decode one
// trace; the decode side uses only name, bitRate, payloadLen, and seed.
type goldenSpec struct {
	name       string
	distance   units.Meters
	pktRate    float64
	bitRate    float64
	payloadLen int
	seed       int64
}

// Two operating points: a short clean link that decodes error-free, and a
// long noisy one where the decoder works near its limit — the regime where
// pipeline regressions actually change bits.
var goldenSpecs = []goldenSpec{
	{"clean_5cm", units.Centimeters(5), 400, 100, 12, 41},
	{"noisy_180cm", units.Centimeters(180), 400, 100, 12, 43},
}

func bitString(bits []bool) string {
	var b strings.Builder
	for _, v := range bits {
		if v {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// renderGolden formats a decode outcome as the golden file contents.
// Floats use shortest round-trip formatting, so the text pins the exact
// values.
func renderGolden(spec goldenSpec, sent []bool, res *uplink.Result, dec *uplink.Decoder) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s\n", spec.name)
	fmt.Fprintf(&b, "sent %s\n", bitString(sent))
	fmt.Fprintf(&b, "decoded %s\n", bitString(res.Payload))
	fmt.Fprintf(&b, "biterrors %d\n", core.CountBitErrors(res.Payload, sent))
	fmt.Fprintf(&b, "detected %v\n", dec.Detected(res))
	fmt.Fprintf(&b, "correlation %s\n",
		strconv.FormatFloat(res.PreambleCorrelation, 'g', -1, 64))
	fmt.Fprintf(&b, "measurements_per_bit %s\n",
		strconv.FormatFloat(res.MeasurementsPerBit, 'g', -1, 64))
	b.WriteString("good")
	for _, id := range res.Good {
		fmt.Fprintf(&b, " %s", id)
	}
	b.WriteString("\n")
	return b.String()
}

// decodeGoldenTrace reads a trace off disk and runs the paper's CSI decode
// at the spec's operating point.
func decodeGoldenTrace(spec goldenSpec) ([]bool, *uplink.Result, *uplink.Decoder, error) {
	f, err := os.Open(filepath.Join("testdata", spec.name+".wbtrace"))
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close()
	s, err := csi.ReadSeries(f)
	if err != nil {
		return nil, nil, nil, err
	}
	dec, err := uplink.NewDecoder(uplink.DefaultConfig(1 / spec.bitRate))
	if err != nil {
		return nil, nil, nil, err
	}
	sent := core.RandomPayload(spec.payloadLen, spec.seed+7777)
	res, err := dec.DecodeCSI(s, goldenTxStart, spec.payloadLen)
	if err != nil {
		return nil, nil, nil, err
	}
	return sent, res, dec, nil
}

func TestGoldenTraces(t *testing.T) {
	for _, spec := range goldenSpecs {
		t.Run(spec.name, func(t *testing.T) {
			if *updateGolden {
				if err := writeGoldenFiles(spec); err != nil {
					t.Fatal(err)
				}
			}
			sent, res, dec, err := decodeGoldenTrace(spec)
			if err != nil {
				t.Fatalf("decode recorded trace: %v (run with -update to regenerate)", err)
			}
			got := renderGolden(spec, sent, res, dec)
			want, err := os.ReadFile(filepath.Join("testdata", spec.name+".golden"))
			if err != nil {
				t.Fatalf("read golden: %v (run with -update to regenerate)", err)
			}
			if !bytes.Equal([]byte(got), want) {
				t.Errorf("decode differs from golden file:\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// writeGoldenFiles regenerates one spec's trace and expectation files. The
// golden expectations are computed from the trace as re-read from disk, so
// the stored text always matches what TestGoldenTraces will compute.
func writeGoldenFiles(spec goldenSpec) error {
	sys, err := core.NewSystem(core.Config{
		Seed:              spec.seed,
		TagReaderDistance: spec.distance,
	})
	if err != nil {
		return err
	}
	// CBR helper traffic at the spec's (reduced) packet rate keeps the
	// recorded files small while still giving the decoder several
	// measurements per bit.
	(&wifi.CBRSource{
		Station:  sys.Helper,
		Dst:      wifi.MAC{0x02, 0, 0, 0, 0, 9},
		Payload:  200,
		Interval: 1 / spec.pktRate,
	}).Start()
	payload := core.RandomPayload(spec.payloadLen, spec.seed+7777)
	mod, err := sys.TransmitUplink(tag.FrameBits(payload), goldenTxStart, spec.bitRate)
	if err != nil {
		return err
	}
	sys.Run(mod.End() + 0.2)
	trimmed := trimSeries(sys.Series(), mod.Start()-0.05, mod.End()+0.05)
	f, err := os.Create(filepath.Join("testdata", spec.name+".wbtrace"))
	if err != nil {
		return err
	}
	if err := csi.WriteSeries(f, trimmed); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	sent, res, dec, err := decodeGoldenTrace(spec)
	if err != nil {
		return fmt.Errorf("regenerated trace does not decode: %w", err)
	}
	return os.WriteFile(filepath.Join("testdata", spec.name+".golden"),
		[]byte(renderGolden(spec, sent, res, dec)), 0o644)
}

// trimSeries keeps the measurements within [lo, hi). The decoder buffers
// only the frame's measurements anyway, so trimming does not change the
// decode.
func trimSeries(s *csi.Series, lo, hi float64) *csi.Series {
	out := &csi.Series{}
	for _, m := range s.Measurements {
		if m.Timestamp >= lo && m.Timestamp < hi {
			out.Append(m)
		}
	}
	return out
}
