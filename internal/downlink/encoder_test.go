package downlink

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wifi"
)

func TestNewEncoderValidation(t *testing.T) {
	if _, err := NewEncoder(0); err == nil {
		t.Error("zero bit duration should error")
	}
	// 10 µs is below the minimal packet airtime at 54 Mbps.
	if _, err := NewEncoder(10e-6); err == nil {
		t.Error("bit duration below packet airtime should error")
	}
	for _, d := range []float64{50e-6, 100e-6, 200e-6} {
		if _, err := NewEncoder(d); err != nil {
			t.Errorf("NewEncoder(%v): %v", d, err)
		}
	}
}

func TestEncoderBitRates(t *testing.T) {
	for _, c := range []struct {
		dur  float64
		rate float64
	}{{50e-6, 20000}, {100e-6, 10000}, {200e-6, 5000}} {
		e, err := NewEncoder(c.dur)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.BitRate(); math.Abs(got-c.rate) > 1e-6 {
			t.Errorf("BitRate(%v) = %v, want %v", c.dur, got, c.rate)
		}
	}
}

func TestPlanSingleChunk(t *testing.T) {
	e, _ := NewEncoder(50e-6)
	msg := NewMessage(0xDEADBEEF)
	chunks := e.Plan(msg.Bits())
	if len(chunks) != 1 {
		t.Fatalf("80-bit message should fit one reservation, got %d chunks", len(chunks))
	}
	c := chunks[0]
	if len(c.Bits) != TotalBits {
		t.Errorf("chunk bits = %d, want %d", len(c.Bits), TotalBits)
	}
	// §4.1: 80 bits at 50 µs ≈ 4.0 ms (+guard).
	if c.Reservation < 0.004 || c.Reservation > 0.0045 {
		t.Errorf("reservation = %v, want ~4.0-4.5 ms", c.Reservation)
	}
	ones := 0
	for _, b := range c.Bits {
		if b {
			ones++
		}
	}
	if len(c.PacketOffsets) != ones {
		t.Errorf("packet offsets = %d, want one per set bit (%d)", len(c.PacketOffsets), ones)
	}
	// Offsets must be on the bit grid.
	for _, off := range c.PacketOffsets {
		slot := (off - e.Guard) / e.BitDuration
		if math.Abs(slot-math.Round(slot)) > 1e-9 {
			t.Errorf("offset %v not on bit grid", off)
		}
	}
}

func TestPlanSplitsLongMessages(t *testing.T) {
	e, _ := NewEncoder(200e-6)
	// 32 ms at 200 µs/bit fits ~159 bits; 400 bits need 3 chunks.
	bits := make([]bool, 400)
	for i := range bits {
		bits[i] = i%3 == 0
	}
	chunks := e.Plan(bits)
	if len(chunks) != 3 {
		t.Fatalf("got %d chunks, want 3", len(chunks))
	}
	total := 0
	for _, c := range chunks {
		total += len(c.Bits)
		if c.Reservation > wifi.MaxNAV+1e-12 {
			t.Errorf("reservation %v exceeds the 32 ms NAV limit", c.Reservation)
		}
	}
	if total != 400 {
		t.Errorf("chunks carry %d bits, want 400", total)
	}
}

func TestPlanEmpty(t *testing.T) {
	e, _ := NewEncoder(50e-6)
	if got := e.Plan(nil); got != nil {
		t.Errorf("empty plan = %v, want nil", got)
	}
}

func TestAirTimeTotal(t *testing.T) {
	e, _ := NewEncoder(50e-6)
	chunks := e.Plan(NewMessage(1).Bits())
	if got, want := AirTimeTotal(chunks), chunks[0].Reservation; got != want {
		t.Errorf("AirTimeTotal = %v, want %v", got, want)
	}
}

func TestSendThroughMedium(t *testing.T) {
	eng := sim.NewEngine()
	m := wifi.NewMedium(eng, rng.New(1))
	reader := m.AddStation("reader", wifi.MAC{1}, wifi.Rate54)
	// A contending station should be locked out during the message.
	other := m.AddStation("other", wifi.MAC{2}, wifi.Rate54)

	e, err := NewEncoder(50e-6)
	if err != nil {
		t.Fatal(err)
	}
	msg := NewMessage(0x0000ACE0FBEEF)
	chunks := e.Plan(msg.Bits())

	var markers []wifi.Transmission
	var windowStart float64
	m.AddListener(func(tx wifi.Transmission) {
		if tx.Frame.Header.Type == wifi.TypeQoSNull {
			markers = append(markers, tx)
		}
	})
	if err := e.Send(m, reader, chunks, func(chunk int, start float64) {
		windowStart = start
	}); err != nil {
		t.Fatal(err)
	}
	// Competing saturated traffic.
	(&wifi.SaturatedSource{Station: other, Dst: wifi.MAC{9}, Payload: 1000}).Start()
	eng.Run(1)

	ones := 0
	for _, b := range msg.Bits() {
		if b {
			ones++
		}
	}
	if len(markers) != ones {
		t.Fatalf("saw %d marker packets, want %d", len(markers), ones)
	}
	// Each marker must sit on its slot relative to the window start.
	for _, tx := range markers {
		slot := (tx.Start - windowStart - e.Guard) / e.BitDuration
		if math.Abs(slot-math.Round(slot)) > 1e-9 {
			t.Errorf("marker at %v off the bit grid (slot %v)", tx.Start, slot)
		}
	}
	// Markers must arrive in order and inside the protected window.
	winEnd := windowStart + chunks[0].Reservation
	for i := 1; i < len(markers); i++ {
		if markers[i].Start < markers[i-1].Start {
			t.Error("markers out of order")
		}
		if markers[i].Start > winEnd {
			t.Errorf("marker at %v beyond window end %v", markers[i].Start, winEnd)
		}
	}
}

func TestSendEmpty(t *testing.T) {
	eng := sim.NewEngine()
	m := wifi.NewMedium(eng, rng.New(2))
	st := m.AddStation("reader", wifi.MAC{1}, wifi.Rate54)
	e, _ := NewEncoder(50e-6)
	if err := e.Send(m, st, nil, nil); err == nil {
		t.Error("sending no chunks should error")
	}
}

func TestSendMultiChunkSequencing(t *testing.T) {
	eng := sim.NewEngine()
	m := wifi.NewMedium(eng, rng.New(3))
	reader := m.AddStation("reader", wifi.MAC{1}, wifi.Rate54)
	e, _ := NewEncoder(200e-6)
	bits := make([]bool, 300)
	for i := range bits {
		bits[i] = true
	}
	chunks := e.Plan(bits)
	if len(chunks) < 2 {
		t.Fatalf("expected multiple chunks, got %d", len(chunks))
	}
	var windows []float64
	if err := e.Send(m, reader, chunks, func(chunk int, start float64) {
		windows = append(windows, start)
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run(2)
	if len(windows) != len(chunks) {
		t.Fatalf("granted %d windows, want %d", len(windows), len(chunks))
	}
	for i := 1; i < len(windows); i++ {
		if windows[i] <= windows[i-1] {
			t.Error("windows out of order")
		}
	}
}
