// Command wbtrace dumps simulated traces: every measurement of an uplink
// run — the per-packet CSI amplitude of every sub-channel (the raw data
// behind Figs. 3 and 6) and the per-antenna RSSI — as a wbtrace file, a
// binary frame capture of everything on the medium, or a summary of an
// existing capture.
//
// Usage:
//
//	wbtrace [-tag-dist cm] [-packets N] [-what trace|frames] [-seed N]
//	        [-faults profile|spec] [-metrics out.json] > out
//	wbtrace -summarize trace.wbt
//
// The tag sends an alternating payload of N/10 bits at 100 bps from t=1 s,
// and the run ends 0.5 s after the frame. -what trace (the default)
// writes the run's measurements in the wbtrace format (csi.WriteSeries)
// after one header comment, "# frame " and the tag's on-air frame bits
// (preamble, payload, postamble) as 0s and 1s: the ground truth
// cmd/wbdecode scores its decode against. -what frames writes at most N
// records of the medium's frames.
//
// -faults impairs the captured channel with a deterministic fault schedule
// (named profile like "lossy" or explicit spec; see internal/faults), so
// decoder work on dirty traces is reproducible.
//
// -metrics writes the capture run's pipeline metrics (engine and medium
// counters) as deterministic JSON alongside the trace.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/csi"
	"repro/internal/faults"
	"repro/internal/tag"
	"repro/internal/units"
	"repro/internal/wifi"
)

func main() {
	tagDist := flag.Float64("tag-dist", 5, "tag to reader distance in cm")
	packets := flag.Int("packets", 3000, "trace size: a packets/10-bit payload, and at most this many -what frames records")
	what := flag.String("what", "trace", "trace (wbtrace measurements) or frames (binary capture)")
	seed := flag.Int64("seed", 1, "random seed")
	summarize := flag.String("summarize", "", "summarize an existing frame capture and exit")
	faultsSpec := flag.String("faults", "", "fault profile or schedule to impair the capture (empty = clean)")
	metricsFile := flag.String("metrics", "", "write pipeline metrics as JSON to this file")
	flag.Parse()

	if *summarize != "" {
		if err := summarizeFile(os.Stdout, *summarize); err != nil {
			fmt.Fprintln(os.Stderr, "wbtrace:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdout, *tagDist, *packets, *what, *seed, *faultsSpec, *metricsFile); err != nil {
		fmt.Fprintln(os.Stderr, "wbtrace:", err)
		os.Exit(1)
	}
}

// summarizeFile prints a capture's statistics.
func summarizeFile(out io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := capture.NewReader(f).ReadAll()
	if err != nil {
		return err
	}
	s := capture.Summarize(recs)
	fmt.Fprintf(out, "records:     %d (%d collided, %d lost)\n", s.Records, s.Collided, s.Lost)
	fmt.Fprintf(out, "bytes:       %d\n", s.Bytes)
	fmt.Fprintf(out, "span:        %.3f s, air time %.3f s (%.1f%% utilization)\n",
		s.LastEnd-s.FirstStart, s.AirTime, 100*s.Utilization())
	types := make([]wifi.FrameType, 0, len(s.ByType))
	for ft := range s.ByType {
		types = append(types, ft)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for _, ft := range types {
		fmt.Fprintf(out, "  %-12s %d\n", ft.String()+":", s.ByType[ft])
	}
	return nil
}

func run(out io.Writer, tagDist float64, packets int, what string, seed int64, faultsSpec, metricsFile string) error {
	if packets <= 0 {
		return fmt.Errorf("-packets must be positive (got %d)", packets)
	}
	if tagDist <= 0 {
		return fmt.Errorf("-tag-dist must be positive (got %g)", tagDist)
	}
	if what != "trace" && what != "frames" {
		return fmt.Errorf("unknown -what %q (use trace or frames)", what)
	}
	sched, err := faults.ParseSpec(faultsSpec)
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(core.Config{
		Seed:              seed,
		TagReaderDistance: units.Centimeters(tagDist),
		Faults:            sched,
	})
	if err != nil {
		return err
	}
	sys.EnableTxLog()
	if err := (&wifi.CBRSource{
		Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 0.001,
	}).Start(); err != nil {
		return err
	}
	payload := make([]bool, packets/10)
	for i := range payload {
		payload[i] = i%2 == 0
	}
	frame := tag.FrameBits(payload)
	mod, err := sys.TransmitUplink(frame, 1.0, 100)
	if err != nil {
		return err
	}
	sys.Run(mod.End() + 0.5)
	if metricsFile != "" {
		f, err := os.Create(metricsFile)
		if err != nil {
			return err
		}
		if err := sys.Metrics().WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if what == "frames" {
		cw := capture.NewWriter(out)
		for i, tx := range sys.TxLog() {
			if i >= packets {
				break
			}
			if err := cw.Write(&capture.Record{
				Start: tx.Start, End: tx.End, Rate: tx.Rate,
				Collided: tx.Collided, Lost: tx.Lost, Frame: *tx.Frame,
			}); err != nil {
				return err
			}
		}
		return cw.Flush()
	}
	line := []byte("# frame ")
	for _, b := range frame {
		c := byte('0')
		if b {
			c = '1'
		}
		line = append(line, c)
	}
	if _, err := out.Write(append(line, '\n')); err != nil {
		return err
	}
	return csi.WriteSeries(out, sys.Series())
}
