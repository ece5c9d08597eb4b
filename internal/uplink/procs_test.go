package uplink_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/csi"
	"repro/internal/dsp"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/uplink"
)

// procsInput is one transmission every entry point decodes: a payload of
// payload bits of bitDur from start, and the same frame length as a long
// range frame of lrBits bits in chip codes of length lrChips.
type procsInput struct {
	name            string
	s               *csi.Series
	start, bitDur   float64
	payload         int
	lrBits, lrChips int
}

// procsInputs returns the checked-in golden traces (12 bits at 100 bps
// from t = 1 s) and the benchmarks' two transmissions.
func procsInputs(t *testing.T) []procsInput {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "eval", "testdata", "*.wbtrace"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden traces found (%v)", err)
	}
	var ins []procsInput
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := csi.ReadSeries(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		ins = append(ins, procsInput{filepath.Base(p), s, 1.0, 0.01, 12, 3, 4})
	}
	s, mod, _ := uplink.BenchSeries(t)
	ins = append(ins, procsInput{"bench", s, mod.Start(), 0.01, 90, 9, 10})
	s, mod, code0, _ := uplink.LongRangeBenchSeries()
	ins = append(ins, procsInput{"bench-longrange", s, mod.Start(), 0.005, 16 * len(code0), 16, len(code0)})
	return ins
}

// frameRecord is a list of named decode outputs, floats kept as their
// bits.
type frameRecord []recordEntry

type recordEntry struct {
	name string
	bits []uint64
}

func (r *frameRecord) text(name string, v any) {
	*r = append(*r, recordEntry{name: fmt.Sprintf("%s %v", name, v)})
}

func (r *frameRecord) floats(name string, vs ...float64) {
	bits := make([]uint64, len(vs))
	for i, v := range vs {
		bits[i] = math.Float64bits(v)
	}
	*r = append(*r, recordEntry{name, bits})
}

func (r *frameRecord) result(name string, res *uplink.Result) {
	r.text(name+" payload", res.Payload)
	r.text(name+" good", res.Good)
	r.floats(name+" corr+mpb", res.PreambleCorrelation, res.MeasurementsPerBit)
}

func (r *frameRecord) lanes(name string, ls []uplink.LaneStats) {
	r.text(name+" lanes", len(ls))
	for i, l := range ls {
		lane := fmt.Sprintf("%s lane %d", name, i)
		r.text(lane+" id", l.ID)
		r.floats(lane+" corr/sign/variance/score", l.Corr, l.Sign, l.Variance, l.Score)
		r.floats(lane+" cond", l.Cond...)
		r.floats(lane+" means", l.Means...)
		r.text(lane+" ok", l.OK)
	}
}

// firstDiff returns the name of the first entry where got differs from
// want, or "" when they are equal.
func (want frameRecord) firstDiff(got frameRecord) string {
	for i := 0; i < min(len(want), len(got)); i++ {
		if want[i].name != got[i].name {
			return fmt.Sprintf("%.200s, want %.200s", got[i].name, want[i].name)
		}
		if !slices.Equal(want[i].bits, got[i].bits) {
			return want[i].name
		}
	}
	if len(want) != len(got) {
		return fmt.Sprintf("entry %d: %d entries, want %d", min(len(want), len(got)), len(got), len(want))
	}
	return ""
}

// observeFrameClose decodes in through every entry point — CSI, RSSI, the
// variants, long range, DetectAck, FindTransmission, and CSI through a
// fault injector's Impair — and renders the results, long-range margins, every lane's
// condition+score output and the decoders' metrics snapshot.
func observeFrameClose(t *testing.T, in procsInput) frameRecord {
	t.Helper()
	var rec frameRecord
	reg := obs.NewRegistry()
	d, err := uplink.NewDecoder(uplink.DefaultConfig(in.bitDur))
	if err != nil {
		t.Fatal(err)
	}
	d.Instrument(reg)
	check := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s %s: %v", in.name, what, err)
		}
	}
	// lanes(name)(stream constructor) records the stream's lanes.
	lanes := func(name string) func(*uplink.StreamDecoder, error) {
		return func(sd *uplink.StreamDecoder, err error) {
			check(name+" stream", err)
			ls, err := uplink.CloseLanes(sd, in.s)
			check(name+" lanes", err)
			rec.lanes(name, ls)
		}
	}

	res, err := d.DecodeCSI(in.s, in.start, in.payload)
	check("csi", err)
	rec.result("csi", res)
	lanes("csi")(d.NewStream(in.start, in.payload, uplink.StreamCSI))

	res, err = d.DecodeRSSI(in.s, in.start, in.payload)
	check("rssi", err)
	rec.result("rssi", res)
	lanes("rssi")(d.NewStream(in.start, in.payload, uplink.StreamRSSI))

	for _, v := range uplink.AllVariants {
		res, err = d.DecodeVariant(in.s, in.start, in.payload, v)
		check(v.String(), err)
		rec.result(v.String(), res)
		lanes(v.String())(d.NewVariantStream(in.start, in.payload, v))
	}

	code0, code1, err := dsp.WalshPair(in.lrChips)
	check("codes", err)
	lr, err := d.DecodeLongRange(in.s, in.start, in.lrBits, code0, code1)
	check("longrange", err)
	rec.text("longrange payload", lr.Payload)
	rec.text("longrange good", lr.Good)
	rec.floats("longrange margins", lr.Margins...)
	lanes("longrange")(d.NewLongRangeStream(in.start, in.lrBits, code0, code1))

	ok, best, err := d.DetectAck(in.s, in.start)
	check("ack", err)
	rec.text("ack", ok)
	rec.floats("ack best", best)
	rec.lanes("ack", d.AckLanes(in.s, in.start))

	// FindTransmission conditions its scan window's lanes through the same
	// lane chunks; scan a few bits either side of the true start.
	at, found, err := d.FindTransmission(in.s, in.start-4*in.bitDur, in.start+4*in.bitDur)
	check("sync", err)
	rec.text("sync found", found)
	rec.floats("sync start", at)

	// The fault seam draws from one stream per lane in lane order; those
	// draws must not move with the fan-out after it.
	di, err := uplink.NewDecoder(uplink.DefaultConfig(in.bitDur))
	check("impaired decoder", err)
	di.Instrument(reg)
	sched := &faults.Schedule{Windows: []faults.Window{{Kind: faults.Corrupt, Start: in.start, End: in.start + 1e3, Intensity: 1}}}
	inj, err := faults.NewInjector(sched, rng.New(99))
	check("injector", err)
	di.Impair = inj
	res, err = di.DecodeCSI(in.s, in.start, in.payload)
	check("impaired csi", err)
	rec.result("impaired", res)
	lanes("impaired")(di.NewStream(in.start, in.payload, uplink.StreamCSI))
	if inj.Tally().Corrupt == 0 {
		t.Fatalf("%s: the injector corrupted no sample", in.name)
	}

	var snap strings.Builder
	if err := reg.Snapshot().WriteJSON(&snap); err != nil {
		t.Fatal(err)
	}
	rec.text("metrics", snap.String())
	return rec
}

// TestFrameCloseProcsInvariant pins that the frame close's lane fan-out is
// invisible: every entry point decodes the same bits, stats, lanes and
// metrics at GOMAXPROCS 1, 2 and 8.
func TestFrameCloseProcsInvariant(t *testing.T) {
	ins := procsInputs(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, in := range ins {
		var want frameRecord
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got := observeFrameClose(t, in)
			if procs == 1 {
				want = got
				continue
			}
			if diff := want.firstDiff(got); diff != "" {
				t.Errorf("%s: GOMAXPROCS=%d differs from GOMAXPROCS=1 first at %s", in.name, procs, diff)
			}
		}
	}
}
