// Command wbdecode runs the Wi-Fi Backscatter uplink decoder offline over
// a wbtrace measurement trace (the format cmd/wbtrace emits and
// csi.WriteSeries writes: one row per packet with a timestamp, the
// per-antenna RSSI and the per-(antenna, sub-channel) CSI amplitudes).
// -mode picks which half of the row to decode. This is the decoder as a
// standalone artifact: a trace collected elsewhere — including a real
// Intel CSI Tool capture exported to the same format — decodes without the
// simulator.
//
// With an explicit -payload the trace is decoded incrementally: rows are
// parsed one at a time into a reused record (csi.RowReader) and pushed
// straight into an uplink.StreamDecoder, so memory stays constant in the
// trace length — the decoder buffers only the measurements inside the
// transmission window. That is what makes `-follow` work on a live pipe:
// bits print the moment the frame closes, while the producer is still
// writing. Without -payload the length is inferred from the trace span,
// which requires reading the whole trace first (the only materialized
// path).
//
// Usage:
//
//	wbtrace > run.wbtrace
//	wbdecode -rate 100 -start 1.0 -payload 300 < run.wbtrace
//	wbtrace | wbdecode -rate 100 -start 1.0 -payload 300 -follow
//
// When the trace's header carries the tag's frame bits (a "# frame "
// comment, as cmd/wbtrace writes), wbdecode also reports the payload's
// bit error rate against them.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/csi"
	"repro/internal/tag"
	"repro/internal/uplink"
)

func main() {
	rate := flag.Float64("rate", 100, "tag bit rate in bits/s")
	start := flag.Float64("start", 1.0, "transmission start time in seconds")
	payload := flag.Int("payload", 0, "payload bits (0 = infer from trace span)")
	mode := flag.String("mode", "csi", "csi or rssi")
	follow := flag.Bool("follow", false, "print bits as they decode (requires -payload)")
	flag.Parse()

	if err := run(os.Stdin, os.Stdout, *rate, *start, *payload, *mode, *follow); err != nil {
		fmt.Fprintln(os.Stderr, "wbdecode:", err)
		os.Exit(1)
	}
}

// framePrefix starts the header comment that carries the tag's on-air
// frame bits.
const framePrefix = "# frame "

// truthPayload returns the payload bits of the first "# frame " comment,
// or nil when there is none.
func truthPayload(comments []string) ([]bool, error) {
	for _, c := range comments {
		bits, ok := strings.CutPrefix(c, framePrefix)
		if !ok {
			continue
		}
		pre, post := len(tag.Preamble), len(tag.Postamble)
		if len(bits) < pre+post || strings.Trim(bits, "01") != "" {
			return nil, fmt.Errorf("bad frame comment %q", c)
		}
		payload := make([]bool, len(bits)-pre-post)
		for i := range payload {
			payload[i] = bits[pre+i] == '1'
		}
		return payload, nil
	}
	return nil, nil
}

func run(in io.Reader, out io.Writer, rate, start float64, payloadLen int, mode string, follow bool) error {
	if rate <= 0 {
		return fmt.Errorf("rate must be positive")
	}
	smode, err := uplink.ParseStreamMode(mode)
	if err != nil {
		return err
	}
	if payloadLen <= 0 && follow {
		return fmt.Errorf("-follow requires an explicit -payload (inferring the length needs the whole trace)")
	}
	rr, err := csi.NewRowReader(in)
	if err != nil {
		return err
	}
	truth, err := truthPayload(rr.Comments())
	if err != nil {
		return err
	}
	bitDur := 1 / rate
	if payloadLen <= 0 {
		return runInferred(rr, out, bitDur, start, smode, truth)
	}

	// Streaming path: constant memory in the trace length. One reused row
	// and the decoder's frame-bounded arena.
	dec, err := uplink.NewDecoder(uplink.DefaultConfig(bitDur))
	if err != nil {
		return err
	}
	sd, err := dec.NewStream(start, payloadLen, smode)
	if err != nil {
		return err
	}
	m := rr.Measurement()
	count := 0
	emittedLive := false
	// A pipe cut mid-row (the producer died) is EOF-equivalent for
	// decoding — every complete row already arrived, so the flush below
	// still salvages and prints the frame — but the loss is reported: the
	// error propagates after the summary, so the exit status is nonzero.
	var truncated error
	for {
		err := rr.Next(&m)
		if err == io.EOF {
			break
		}
		if errors.Is(err, csi.ErrTruncatedRow) {
			truncated = err
			break
		}
		if err != nil {
			return err
		}
		count++
		bits, err := sd.Push(m)
		if err != nil {
			return err
		}
		if follow && len(bits) > 0 {
			printLive(out, bits)
			emittedLive = true
		}
	}
	if count == 0 {
		if truncated != nil {
			return truncated
		}
		return fmt.Errorf("trace is empty")
	}
	res, err := sd.Flush()
	if err != nil {
		return err
	}
	if follow && !emittedLive {
		// The trace ended inside the frame, so the bits only exist now.
		printLive(out, sd.Bits())
	}
	summarize(out, dec, res, count, payloadLen, truth)
	return truncated
}

// printLive prints bit decisions the moment Push emits them.
func printLive(out io.Writer, bits []uplink.BitDecision) {
	for _, b := range bits {
		bit := 0
		if b.Bit {
			bit = 1
		}
		fmt.Fprintf(out, "bit %3d = %d  (%d measurements)\n", b.Index, bit, b.Measurements)
	}
}

// summarize prints the decode report shared by both paths. The BER line
// needs the trace's frame bits (truth), and a payload of the decoded
// length.
func summarize(out io.Writer, dec *uplink.Decoder, res *uplink.Result, measurements, payloadLen int, truth []bool) {
	fmt.Fprintf(out, "measurements:        %d\n", measurements)
	fmt.Fprintf(out, "payload bits:        %d\n", payloadLen)
	fmt.Fprintf(out, "measurements/bit:    %.1f\n", res.MeasurementsPerBit)
	fmt.Fprintf(out, "preamble correlation: %.3f (detected: %v)\n",
		res.PreambleCorrelation, dec.Detected(res))
	fmt.Fprintf(out, "channels used:       %v\n", res.Good)
	fmt.Fprintf(out, "bits: %s\n", bitString(res.Payload))
	switch {
	case truth == nil:
	case len(truth) != payloadLen:
		fmt.Fprintf(out, "ground truth BER:    n/a (the trace's frame carries %d payload bits)\n", len(truth))
	default:
		errs := 0
		for i, b := range truth {
			if res.Payload[i] != b {
				errs++
			}
		}
		fmt.Fprintf(out, "ground truth BER:    %d/%d = %.2e\n",
			errs, payloadLen, float64(errs)/float64(payloadLen))
	}
}

// runInferred is the materialized path: payload length comes from the
// trace span, so the whole trace must be read before decoding.
func runInferred(rr *csi.RowReader, out io.Writer, bitDur, start float64, mode uplink.StreamMode, truth []bool) error {
	s, err := rr.ReadAll()
	if err != nil {
		return err
	}
	if s.Len() == 0 {
		return fmt.Errorf("trace is empty")
	}
	last := s.Measurements[s.Len()-1].Timestamp
	payloadLen := int((last-start)/bitDur) - 26
	if payloadLen <= 0 {
		return fmt.Errorf("trace too short to infer a payload length")
	}
	dec, err := uplink.NewDecoder(uplink.DefaultConfig(bitDur))
	if err != nil {
		return err
	}
	decode := dec.DecodeCSI
	if mode == uplink.StreamRSSI {
		decode = dec.DecodeRSSI
	}
	res, err := decode(s, start, payloadLen)
	if err != nil {
		return err
	}
	summarize(out, dec, res, s.Len(), payloadLen, truth)
	return nil
}

func bitString(bits []bool) string {
	var b strings.Builder
	for _, bit := range bits {
		if bit {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}
