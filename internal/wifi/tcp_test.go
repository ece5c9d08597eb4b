package wifi

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func newTCP(t *testing.T, seed int64, loss float64) (*TCPSource, func(until float64)) {
	t.Helper()
	eng, m := newTestMedium(seed)
	sender := m.AddStation("server-ap", MAC{1}, Rate54)
	receiver := m.AddStation("client", MAC{2}, Rate54)
	src := &TCPSource{
		Sender:   sender,
		Receiver: receiver,
		LossProb: loss,
		Rnd:      rng.New(seed + 1),
	}
	src.Start()
	return src, func(until float64) { eng.Run(until) }
}

func TestTCPTransfersData(t *testing.T) {
	src, run := newTCP(t, 1, 0)
	run(5)
	if src.SegmentsSent() < 500 {
		t.Errorf("only %d segments in 5 s", src.SegmentsSent())
	}
	if src.AcksReceived() == 0 {
		t.Error("no ACKs clocked the window")
	}
}

func TestTCPWindowGrowsWithoutLoss(t *testing.T) {
	src, run := newTCP(t, 2, 0)
	run(5)
	if src.Window() < float64(src.MaxWindow)-1 {
		t.Errorf("lossless window = %v, want near max %d", src.Window(), src.MaxWindow)
	}
}

func TestTCPLossCapsWindow(t *testing.T) {
	lossy, runLossy := newTCP(t, 3, 0.05)
	runLossy(5)
	clean, runClean := newTCP(t, 3, 0)
	runClean(5)
	if lossy.SegmentsSent() >= clean.SegmentsSent() {
		t.Errorf("5%% loss (%d segments) should slow the transfer vs lossless (%d)",
			lossy.SegmentsSent(), clean.SegmentsSent())
	}
	if lossy.Window() >= float64(lossy.MaxWindow) {
		t.Errorf("lossy window = %v, should sit below max", lossy.Window())
	}
}

func TestTCPGeneratesBidirectionalTraffic(t *testing.T) {
	eng, m := newTestMedium(4)
	sender := m.AddStation("ap", MAC{1}, Rate54)
	receiver := m.AddStation("client", MAC{2}, Rate54)
	var dataFrames, ackFrames int
	m.AddListener(func(tx Transmission) {
		if tx.Collided || tx.Frame.Header.Type != TypeData {
			return
		}
		if len(tx.Frame.Payload) > 500 {
			dataFrames++
		} else {
			ackFrames++
		}
	})
	(&TCPSource{Sender: sender, Receiver: receiver, Rnd: rng.New(5)}).Start()
	eng.Run(3)
	if dataFrames == 0 || ackFrames == 0 {
		t.Fatalf("data=%d acks=%d, want both directions on air", dataFrames, ackFrames)
	}
	// Pure ACK clocking: roughly one ACK per delivered segment.
	ratio := float64(ackFrames) / float64(dataFrames)
	if math.Abs(ratio-1) > 0.2 {
		t.Errorf("ack/data ratio = %v, want ~1", ratio)
	}
	// ACK airtimes sit in the short-packet band that matters for the
	// Fig. 18 false-positive structure.
	ackAir := AirTime(52+headerLen+fcsLen, Rate54)
	if ackAir < 25e-6 || ackAir > 65e-6 {
		t.Errorf("ACK airtime = %v µs, expected the 25-65 µs band", ackAir*1e6)
	}
}

func TestTCPSelfClockedUnderContention(t *testing.T) {
	// A competing saturated station must slow TCP down (shared medium),
	// not deadlock it.
	eng, m := newTestMedium(6)
	sender := m.AddStation("ap", MAC{1}, Rate54)
	receiver := m.AddStation("client", MAC{2}, Rate54)
	rival := m.AddStation("rival", MAC{3}, Rate54)
	src := &TCPSource{Sender: sender, Receiver: receiver, Rnd: rng.New(7)}
	src.Start()
	(&SaturatedSource{Station: rival, Dst: MAC{9}, Payload: 1400}).Start()
	eng.Run(5)
	if src.SegmentsSent() == 0 {
		t.Fatal("TCP starved by contention")
	}
	solo, run := newTCP(t, 6, 0)
	run(5)
	if src.SegmentsSent() >= solo.SegmentsSent() {
		t.Errorf("contended TCP (%d) should be slower than solo (%d)",
			src.SegmentsSent(), solo.SegmentsSent())
	}
}

func TestTCPUntilStopsPumping(t *testing.T) {
	eng, m := newTestMedium(8)
	sender := m.AddStation("ap", MAC{1}, Rate54)
	receiver := m.AddStation("client", MAC{2}, Rate54)
	src := &TCPSource{Sender: sender, Receiver: receiver, Until: 1.0, Rnd: rng.New(9)}
	src.Start()
	eng.Run(1)
	at1s := src.SegmentsSent()
	eng.Run(3)
	// A few in-flight completions may still trickle, but no new pumping.
	if src.SegmentsSent() > at1s+src.MaxWindow {
		t.Errorf("segments kept flowing after Until: %d -> %d", at1s, src.SegmentsSent())
	}
}

func TestTCPValidation(t *testing.T) {
	if err := (&TCPSource{}).Start(); err == nil {
		t.Error("nil stations should error")
	}
	if _, err := NewTCPSource(nil, nil); err == nil {
		t.Error("NewTCPSource with nil stations should error")
	}
	engA, mA := newTestMedium(41)
	_ = engA
	_, mB := newTestMedium(42)
	sa := mA.AddStation("a", MAC{1}, Rate54)
	sb := mB.AddStation("b", MAC{2}, Rate54)
	if _, err := NewTCPSource(sa, sb); err == nil {
		t.Error("stations on different media should error")
	}
	sc := mA.AddStation("c", MAC{3}, Rate54)
	if src, err := NewTCPSource(sa, sc); err != nil || src == nil {
		t.Errorf("valid TCPSource: %v", err)
	}
}
