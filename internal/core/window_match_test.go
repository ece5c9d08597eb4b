package core_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/downlink"
	"repro/internal/faults"
	"repro/internal/firmware"
	"repro/internal/inventory"
	"repro/internal/reader"
	"repro/internal/units"
	"repro/internal/wifi"
)

// windowScenario runs one workload that decodes downlink windows on a
// system made from cfg, with tap applied before any traffic, and returns
// what the workload reports, metrics included.
type windowScenario struct {
	name string
	run  func(t *testing.T, cfg core.Config, tap func(*core.System)) any
}

// newWindowSystem builds a system at 20 cm with tap applied and 1000
// helper packets a second started.
func newWindowSystem(t *testing.T, cfg core.Config, tap func(*core.System)) *core.System {
	t.Helper()
	cfg.TagReaderDistance = units.Centimeters(20)
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tap(sys)
	if err := (&wifi.CBRSource{Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 0.001}).Start(); err != nil {
		t.Fatal(err)
	}
	return sys
}

var windowScenarios = []windowScenario{
	{"query", func(t *testing.T, cfg core.Config, tap func(*core.System)) any {
		// Three transactions on one system, each with up to five
		// attempts: the log stops and restarts between them.
		sys := newWindowSystem(t, cfg, tap)
		sys.Run(0.3)
		txn := core.DefaultTransactionConfig()
		txn.ResponseTimeout = 1.0
		var out []*core.QueryResult
		for i := range 3 {
			q := reader.Query{Command: reader.CmdRead, TagID: 1, BitRate: 250}
			res, err := sys.RunQuery(q, 0xABCD00+uint64(i), txn)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return []any{out, sys.Metrics().Snapshot()}
	}},
	{"inventory", func(t *testing.T, cfg core.Config, tap func(*core.System)) any {
		// Every unidentified tag decodes each round's query window.
		sys := newWindowSystem(t, cfg, tap)
		sys.Run(0.3)
		ids := []uint64{0xA000, 0xA001, 0xA002, 0xA003}
		dists := []units.Meters{units.Centimeters(12), units.Centimeters(16), units.Centimeters(20), units.Centimeters(24)}
		inv, err := inventory.New(sys, ids, dists, inventory.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := inv.Run()
		if err != nil {
			t.Fatal(err)
		}
		return []any{res, sys.Metrics().Snapshot()}
	}},
	{"firmware", func(t *testing.T, cfg core.Config, tap func(*core.System)) any {
		sys := newWindowSystem(t, cfg, tap)
		sys.EnableTxLog()
		sys.Run(0.2)
		fw, err := firmware.New(firmware.Config{ID: 0x0C0C, DownlinkBitDuration: 50e-6},
			func(seq uint16) uint64 { return 0x0C0C_0000_0000 | uint64(seq) })
		if err != nil {
			t.Fatal(err)
		}
		enc, err := downlink.NewEncoder(50e-6)
		if err != nil {
			t.Fatal(err)
		}
		q := reader.Query{Command: reader.CmdRead, TagID: 0x0C0C, BitRate: 200}
		chunks := enc.Plan(q.Encode().Bits())
		var ends []float64
		for range 6 {
			granted, winStart := false, 0.0
			if err := enc.Send(sys.Medium, sys.Reader, chunks, func(_ int, s float64) {
				granted, winStart = true, s
			}); err != nil {
				t.Fatal(err)
			}
			sys.Run(sys.Eng.Now() + 0.2)
			if !granted {
				ends = append(ends, -1)
				continue
			}
			end, err := fw.HandleWindow(sys, winStart, chunks[0].Reservation)
			if err != nil {
				t.Fatal(err)
			}
			ends = append(ends, end)
			sys.Run(max(end, sys.Eng.Now()) + 0.5)
		}
		return []any{ends, fw.Stats(), sys.Metrics().Snapshot()}
	}},
}

// TestDownlinkWindowsMatchReference holds every window a system decodes,
// with its log pruned at each window, recorded only while a transaction's
// window is open, and its rows reused, to the reference decode over a
// log of the whole run on a same-seed twin: each window's envelope must
// equal the twin's bit for bit and its result DeepEqual, and so must what
// the workload reports. It covers transaction attempts, inventory rounds
// (one window decoded once per tag) and firmware windows, clean and under
// the chaos (at full and at quarter strength, where some windows decode),
// fading and bursty profiles.
func TestDownlinkWindowsMatchReference(t *testing.T) {
	for _, p := range []struct {
		name      string
		intensity float64
	}{{"clean", 0}, {"chaos", 1}, {"chaos", 0.25}, {"fading", 1}, {"bursty", 1}} {
		var sched *faults.Schedule
		if p.name != "clean" {
			var err error
			if sched, err = faults.Profile(p.name, p.intensity); err != nil {
				t.Fatal(err)
			}
		}
		for _, sc := range windowScenarios {
			t.Run(fmt.Sprintf("%s@%g/%s", p.name, p.intensity, sc.name), func(t *testing.T) {
				cfg := core.Config{Seed: 61, Faults: sched}
				var got, want []core.Window
				gotOut := sc.run(t, cfg, func(s *core.System) { core.RecordWindows(s, &got) })
				wantOut := sc.run(t, cfg, func(s *core.System) { core.RecordReferenceWindows(s, &want) })
				decoded := 0
				for _, w := range want {
					if w.Err == nil && w.Res.Err == nil {
						decoded++
					}
				}
				t.Logf("%d windows, %d decoded", len(want), decoded)
				if len(want) == 0 {
					t.Fatal("the workload decoded no window")
				}
				if err := sameWindows(got, want); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotOut, wantOut) {
					t.Errorf("the workload reports\n%+v\nwant\n%+v", gotOut, wantOut)
				}
			})
		}
	}
}

// sameWindows compares two window records, envelopes by their bits.
func sameWindows(got, want []core.Window) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d windows decoded, reference %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Start != w.Start || g.Dur != w.Dur {
			return fmt.Errorf("window %d is [%v, +%v), reference [%v, +%v)", i, g.Start, g.Dur, w.Start, w.Dur)
		}
		if len(g.Env) != len(w.Env) {
			return fmt.Errorf("window %d at %v: %d envelope samples, reference %d", i, g.Start, len(g.Env), len(w.Env))
		}
		for j := range g.Env {
			if math.Float64bits(g.Env[j]) != math.Float64bits(w.Env[j]) {
				return fmt.Errorf("window %d at %v: envelope sample %d is %v, reference %v", i, g.Start, j, g.Env[j], w.Env[j])
			}
		}
		if !reflect.DeepEqual(g.Res, w.Res) || !reflect.DeepEqual(g.Err, w.Err) {
			return fmt.Errorf("window %d at %v: result %+v (%v), reference %+v (%v)", i, g.Start, g.Res, g.Err, w.Res, w.Err)
		}
	}
	return nil
}

// TestDownlinkWindowOrder checks the window-order rule: a window that
// starts before one already decoded is an error, not an envelope missing
// the spans the earlier window dropped, while an equal start stays legal.
func TestDownlinkWindowOrder(t *testing.T) {
	sys := newWindowSystem(t, core.Config{Seed: 62}, func(s *core.System) { s.EnableTxLog() })
	enc, err := downlink.NewEncoder(50e-6)
	if err != nil {
		t.Fatal(err)
	}
	chunks := enc.Plan(downlink.NewMessage(0x1234).Bits())
	var starts []float64
	for range 2 {
		if err := enc.Send(sys.Medium, sys.Reader, chunks, func(_ int, s float64) { starts = append(starts, s) }); err != nil {
			t.Fatal(err)
		}
		sys.Run(sys.Eng.Now() + 0.2)
	}
	if len(starts) != 2 {
		t.Fatalf("%d windows granted, want 2", len(starts))
	}
	dur := chunks[0].Reservation
	for _, start := range []float64{starts[1], starts[1]} {
		if res, err := sys.DecodeDownlinkWindow(start, dur, 50e-6); err != nil || res.Err != nil {
			t.Fatalf("window at %v: %v / %v", start, err, res.Err)
		}
	}
	_, err = sys.DecodeDownlinkWindow(starts[0], dur, 50e-6)
	if err == nil {
		t.Fatal("a window starting before the last one decoded without an error")
	}
}
