package inventory

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/units"
	"repro/internal/wifi"
)

func TestCRC6Properties(t *testing.T) {
	// Distinct handles get (mostly) distinct CRCs, and single-bit flips
	// are always caught.
	for _, h := range []uint16{0, 1, 0xFFFF, 0xA5A5, 0x1234} {
		c := crc6(h)
		if c > 0x3F {
			t.Fatalf("crc6(%#x) = %#x exceeds 6 bits", h, c)
		}
		for bit := 0; bit < 16; bit++ {
			if crc6(h^(1<<uint(bit))) == c {
				t.Errorf("single-bit flip of %#x at %d not caught", h, bit)
			}
		}
	}
}

func TestHandleFrameRoundTrip(t *testing.T) {
	for _, h := range []uint16{0, 0xBEEF, 0x8001} {
		got, ok := parseHandle(handleFrame(h))
		if !ok || got != h {
			t.Errorf("handle round trip: got (%#x, %v), want %#x", got, ok, h)
		}
	}
}

func TestParseHandleRejectsCorruption(t *testing.T) {
	bits := handleFrame(0x1234)
	for _, flip := range []int{0, 7, 15, 16, 21} {
		bad := append([]bool(nil), bits...)
		bad[flip] = !bad[flip]
		if _, ok := parseHandle(bad); ok {
			t.Errorf("corrupted handle at bit %d accepted", flip)
		}
	}
	if _, ok := parseHandle(make([]bool, 5)); ok {
		t.Error("short payload accepted")
	}
}

func TestNewValidation(t *testing.T) {
	sys, _ := core.NewSystem(core.Config{Seed: 1})
	if _, err := New(sys, nil, nil, DefaultConfig()); err == nil {
		t.Error("no tags should error")
	}
	if _, err := New(sys, []uint64{1}, nil, DefaultConfig()); err == nil {
		t.Error("mismatched distances should error")
	}
	bad := DefaultConfig()
	bad.BitRate = 0
	if _, err := New(sys, []uint64{1}, []units.Meters{0.1}, bad); err == nil {
		t.Error("zero bit rate should error")
	}
}

// runInventory spins up a system with n tags at short range and runs the
// protocol.
func runInventory(t *testing.T, ids []uint64, seed int64) *Result {
	t.Helper()
	sys, err := core.NewSystem(core.Config{Seed: seed, TagReaderDistance: units.Centimeters(15)})
	if err != nil {
		t.Fatal(err)
	}
	(&wifi.CBRSource{
		Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 0.001,
	}).Start()
	sys.Run(0.3)
	dists := make([]units.Meters, len(ids))
	for i := range dists {
		dists[i] = units.Centimeters(15 + 5*float64(i))
	}
	inv, err := New(sys, ids, dists, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := inv.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestInventorySingleTag(t *testing.T) {
	res := runInventory(t, []uint64{0xAAA111}, 2)
	if len(res.Identified) != 1 || res.Identified[0] != 0xAAA111 {
		t.Fatalf("identified = %x, want [aaa111]", res.Identified)
	}
	if res.Rounds < 1 {
		t.Error("at least one round expected")
	}
}

func TestInventoryMultipleTags(t *testing.T) {
	ids := []uint64{0x111111, 0x222222, 0x333333, 0x444444}
	res := runInventory(t, ids, 3)
	if len(res.Identified) != len(ids) {
		t.Fatalf("identified %d of %d tags (rounds %d, collisions %d, empties %d)",
			len(res.Identified), len(ids), res.Rounds, res.Collisions, res.Empties)
	}
	found := map[uint64]bool{}
	for _, id := range res.Identified {
		found[id] = true
	}
	for _, id := range ids {
		if !found[id] {
			t.Errorf("tag %x never identified", id)
		}
	}
	if res.Slots < len(ids) {
		t.Errorf("slots = %d, cannot be below the tag count", res.Slots)
	}
}

func TestInventoryCollisionsHappen(t *testing.T) {
	// Many tags in a tiny initial frame should collide at least once
	// across seeds.
	totalCollisions := 0
	for seed := int64(0); seed < 2; seed++ {
		sys, err := core.NewSystem(core.Config{Seed: 50 + seed, TagReaderDistance: units.Centimeters(15)})
		if err != nil {
			t.Fatal(err)
		}
		(&wifi.CBRSource{
			Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 0.001,
		}).Start()
		sys.Run(0.3)
		ids := []uint64{1, 2, 3, 4, 5}
		dists := make([]units.Meters, len(ids))
		for i := range dists {
			dists[i] = units.Centimeters(15)
		}
		cfg := DefaultConfig()
		cfg.InitialQ = 1 // 2 slots for 5 tags: guaranteed contention
		inv, err := New(sys, ids, dists, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := inv.Run()
		if err != nil {
			t.Fatal(err)
		}
		totalCollisions += res.Collisions
	}
	if totalCollisions == 0 {
		t.Error("5 tags in 2 slots should collide")
	}
}

func TestInventoryDeterministic(t *testing.T) {
	a := runInventory(t, []uint64{0xAB, 0xCD}, 7)
	b := runInventory(t, []uint64{0xAB, 0xCD}, 7)
	if a.Rounds != b.Rounds || a.Slots != b.Slots || len(a.Identified) != len(b.Identified) {
		t.Errorf("inventory not deterministic: %+v vs %+v", a, b)
	}
}

// TestInventoryStarvedRoundsFail runs the protocol under schedules that
// lose every frame on the medium or stall the helper's traffic for the
// whole run: a query the medium never grants is a failed round with no
// slots, and a slot with no measurements reads as empty, so the inventory
// spends its round budget and reports what it got instead of failing.
func TestInventoryStarvedRoundsFail(t *testing.T) {
	for _, w := range []faults.Window{
		{Kind: faults.Burst, Start: 0.3, End: 1000, Intensity: 1},
		{Kind: faults.Stall, Start: 0.3, End: 1000, Intensity: 1},
	} {
		sys, err := core.NewSystem(core.Config{
			Seed: 5, TagReaderDistance: units.Centimeters(15),
			Faults: &faults.Schedule{Windows: []faults.Window{w}},
		})
		if err != nil {
			t.Fatal(err)
		}
		(&wifi.CBRSource{
			Station: sys.Helper, Dst: wifi.MAC{9}, Payload: 200, Interval: 0.001,
		}).Start()
		sys.Run(0.3)
		inv, err := New(sys, []uint64{0xAB, 0xCD}, []units.Meters{0.15, 0.2}, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := inv.Run()
		if err != nil {
			t.Fatalf("%s: %v", w.Kind, err)
		}
		if res.Rounds != DefaultConfig().MaxRounds || len(res.Identified) != 0 {
			t.Errorf("%s: %d rounds, %d identified; want the whole budget of %d spent and none identified",
				w.Kind, res.Rounds, len(res.Identified), DefaultConfig().MaxRounds)
		}
	}
}
