package inventory

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/downlink"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/reader"
	"repro/internal/tag"
	"repro/internal/units"
	"repro/internal/uplink"
	"repro/internal/wifi"
)

// The exactness oracle for the streamed slot and ID decodes: Run, round
// and acknowledge as they were when every slot ran DetectAck and
// DecodeCSI over the system's retained series after the slot frame, and
// the ID was decoded from it after the response, kept verbatim (renamed
// with a ref prefix). The streamed inventory must give the same Result and
// the same metrics snapshot, save uplink.stream.pushes: each batch decode
// pushed the whole series from t = 0.

func (inv *Inventory) refRun() (*Result, error) {
	res := &Result{}
	startTime := inv.sys.Eng.Now()
	qfp := float64(inv.cfg.InitialQ)
	for round := 0; round < inv.cfg.MaxRounds && !inv.done(); round++ {
		res.Rounds++
		q := int(qfp + 0.5)
		if q < 0 {
			q = 0
		}
		if q > 8 {
			q = 8
		}
		nslots := 1 << uint(q)
		singles, collisions, empties, err := inv.refRound(res, nslots)
		if errors.Is(err, errNotGranted) {
			continue // the query never went on air: a failed round, no slots
		}
		if err != nil {
			return nil, err
		}
		res.Singles += singles
		res.Collisions += collisions
		res.Empties += empties
		res.Slots += nslots
		// Gen-2 Q adjustment.
		qfp += inv.cfg.QStep * float64(collisions)
		qfp -= inv.cfg.QStep * float64(empties)
		if qfp < 0 {
			qfp = 0
		}
		if qfp > 8 {
			qfp = 8
		}
	}
	res.Duration = inv.sys.Eng.Now() - startTime
	return res, nil
}
func (inv *Inventory) refRound(res *Result, nslots int) (singles, collisions, empties int, err error) {
	sys := inv.sys
	// 1. Broadcast the inventory query.
	q := reader.Query{
		Command: reader.CmdInventory,
		BitRate: uint16(inv.cfg.BitRate),
		Arg:     uint8(nslots),
	}
	winStart, winDur, err := inv.sendDownlink(q.Encode())
	if err != nil {
		return 0, 0, 0, err
	}
	// 2. Every unidentified tag tries to decode the query and picks a
	// slot and handle.
	participating := 0
	for _, t := range inv.tags {
		t.heardQuery = false
		if t.identified {
			continue
		}
		wr, derr := sys.DecodeDownlinkWindow(winStart, winDur, inv.cfg.DownlinkBitDuration)
		if derr != nil || wr.Err != nil {
			continue
		}
		got := reader.DecodeQuery(wr.Message)
		if got.Command != reader.CmdInventory {
			continue
		}
		t.heardQuery = true
		t.slot = t.rnd.Intn(nslots)
		t.handle = uint16(t.rnd.Intn(1 << 16))
		participating++
	}
	// 3. The slot frame: each tag backscatters its handle in its slot.
	frameBitsPerSlot := 13 + handleBits + 13
	slotDur := float64(frameBitsPerSlot)/inv.cfg.BitRate + 0.1
	frameStart := sys.Eng.Now() + 0.05
	for _, t := range inv.tags {
		if t.identified || !t.heardQuery {
			continue
		}
		start := frameStart + float64(t.slot)*slotDur
		if _, err := sys.TransmitUplinkFrom(t.idx, tag.FrameBits(handleFrame(t.handle)), start, inv.cfg.BitRate); err != nil {
			return 0, 0, 0, err
		}
		// One modulator per tag: transmitting in a later slot replaces
		// the previous round's schedule, which has already played out.
	}
	sys.Run(frameStart + float64(nslots)*slotDur + 0.1)
	// 4. Decode each slot.
	dec, err := sys.UplinkDecoder(inv.cfg.BitRate)
	if err != nil {
		return 0, 0, 0, err
	}
	type capture struct {
		handle uint16
		slot   int
	}
	var captured []capture
	for slot := 0; slot < nslots; slot++ {
		slotStart := frameStart + float64(slot)*slotDur
		// Occupancy first, with the robust many-channel burst detector:
		// the best single channel correlates with noise too easily, and
		// misclassified empty slots would drive the Q adaptation up
		// forever.
		occupied, _, derr := dec.DetectAck(sys.Series(), slotStart)
		if derr != nil {
			return 0, 0, 0, derr
		}
		if !occupied {
			empties++
			continue
		}
		r, derr := dec.DecodeCSI(sys.Series(), slotStart, handleBits)
		if derr != nil {
			return 0, 0, 0, derr
		}
		if handle, ok := parseHandle(r.Payload); ok {
			singles++
			captured = append(captured, capture{handle: handle, slot: slot})
		} else {
			collisions++
		}
	}
	// 5. Acknowledge each captured handle; the owning tag reports its ID.
	for _, c := range captured {
		owner := inv.ownerOf(c.handle, c.slot)
		if owner == nil {
			continue // a collision that happened to pass CRC
		}
		if err := inv.refAcknowledge(owner, res); err != nil {
			return 0, 0, 0, err
		}
	}
	return singles, collisions, empties, nil
}
func (inv *Inventory) refAcknowledge(t *tagState, res *Result) error {
	sys := inv.sys
	ack := reader.Query{
		Command: reader.CmdAckHandle,
		TagID:   t.handle,
		BitRate: uint16(inv.cfg.BitRate),
	}
	winStart, winDur, err := inv.sendDownlink(ack.Encode())
	if errors.Is(err, errNotGranted) {
		return nil // the ACK never went on air; the tag stays unidentified
	}
	if err != nil {
		return err
	}
	wr, derr := sys.DecodeDownlinkWindow(winStart, winDur, inv.cfg.DownlinkBitDuration)
	if derr != nil || wr.Err != nil {
		return nil // tag missed the ACK; it stays unidentified this round
	}
	got := reader.DecodeQuery(wr.Message)
	if got.Command != reader.CmdAckHandle || got.TagID != t.handle {
		return nil
	}
	// The tag reports its 48-bit ID, CRC-protected and scrambled.
	idBits := tag.Scramble(downlink.NewMessage(t.id).PayloadBits())
	start := sys.Eng.Now() + 0.02
	mod, err := sys.TransmitUplinkFrom(t.idx, tag.FrameBits(idBits), start, inv.cfg.BitRate)
	if err != nil {
		return err
	}
	sys.Run(mod.End() + 0.2)
	dec, err := sys.UplinkDecoder(inv.cfg.BitRate)
	if err != nil {
		return err
	}
	r, derr2 := dec.DecodeCSI(sys.Series(), mod.Start(), downlink.PayloadBits)
	if errors.Is(derr2, uplink.ErrNoMeasurements) {
		return nil // traffic stalled over the ID; retry next round
	}
	if derr2 != nil {
		return derr2
	}
	msg, perr := downlink.ParsePayload(tag.Scramble(r.Payload))
	if perr != nil || msg.Data != t.id {
		return nil // garbled ID; retry next round
	}
	t.identified = true
	res.Identified = append(res.Identified, t.id)
	return nil
}

// withoutPushes returns a copy of snap without the uplink.stream.pushes
// counter, the one metric that counts the captures a decode was fed
// rather than what it decoded.
func withoutPushes(snap *obs.Snapshot) *obs.Snapshot {
	c := *snap
	c.Counters = slices.DeleteFunc(slices.Clone(snap.Counters), func(cs obs.CounterSnapshot) bool {
		return cs.Name == "uplink.stream.pushes"
	})
	return &c
}

// TestInventoryMatchesReference runs each inventory twice, streamed and
// through the reference, over populations, seeds and fault profiles (the
// clean channel, every fault kind at once, and a helper-starving one),
// and compares the results and metrics snapshots.
func TestInventoryMatchesReference(t *testing.T) {
	for _, name := range []string{"", "chaos", "bursty"} {
		for _, n := range []int{1, 3, 6} {
			for _, seed := range []int64{1, 2} {
				cfg := core.Config{Seed: seed*100 + int64(n), TagReaderDistance: units.Centimeters(12)}
				if name != "" {
					sched, err := faults.Profile(name, 1)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Faults = sched
				}
				run := func(ref bool) (*Result, *core.System) {
					sys, err := core.NewSystem(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := (&wifi.CBRSource{Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 0.001}).Start(); err != nil {
						t.Fatal(err)
					}
					sys.Run(0.3)
					ids := make([]uint64, n)
					dists := make([]units.Meters, n)
					for i := range ids {
						ids[i] = 0xA000 + uint64(i)
						dists[i] = units.Centimeters(12 + 4*float64(i))
					}
					inv, err := New(sys, ids, dists, DefaultConfig())
					if err != nil {
						t.Fatal(err)
					}
					var res *Result
					if ref {
						res, err = inv.refRun()
					} else {
						res, err = inv.Run()
					}
					if err != nil {
						t.Fatal(err)
					}
					return res, sys
				}
				got, gsys := run(false)
				want, wsys := run(true)
				what := fmt.Sprintf("%q, %d tags, seed %d", name, n, seed)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: result %+v, reference %+v", what, got, want)
				}
				if g, w := withoutPushes(gsys.Metrics().Snapshot()), withoutPushes(wsys.Metrics().Snapshot()); !reflect.DeepEqual(g, w) {
					t.Errorf("%s: metrics snapshot differs from the reference:\n%+v\n%+v", what, g, w)
				}
				if g, w := gsys.FaultInjector().Tally(), wsys.FaultInjector().Tally(); g != w {
					t.Errorf("%s: fault tally %+v, reference %+v", what, g, w)
				}
				if name == "" && len(got.Identified) != n {
					t.Errorf("%s: identified %d of %d tags on a clean channel", what, len(got.Identified), n)
				}
			}
		}
	}
}
