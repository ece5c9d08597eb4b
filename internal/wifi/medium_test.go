package wifi

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/units"
)

func newTestMedium(seed int64) (*sim.Engine, *Medium) {
	eng := sim.NewEngine()
	return eng, NewMedium(eng, rng.New(seed))
}

func TestSingleStationDelivers(t *testing.T) {
	eng, m := newTestMedium(1)
	st := m.AddStation("helper", MAC{1}, Rate54)
	var seen []*Transmission
	m.AddListener(func(tx *Transmission) { seen = append(seen, tx) })
	st.Enqueue(dataFrame(MAC{2}, make([]byte, 100)))
	eng.Run(1)
	if len(seen) != 1 {
		t.Fatalf("saw %d transmissions, want 1", len(seen))
	}
	tx := seen[0]
	if tx.Collided || tx.Lost {
		t.Errorf("clean channel transmission flagged: %+v", tx)
	}
	if tx.End <= tx.Start {
		t.Errorf("bad timing: %v..%v", tx.Start, tx.End)
	}
	if st.DeliveredFrames != 1 || st.SentFrames != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestSequenceNumbersIncrement(t *testing.T) {
	eng, m := newTestMedium(2)
	st := m.AddStation("s", MAC{1}, Rate54)
	var seqs []uint16
	m.AddListener(func(tx *Transmission) { seqs = append(seqs, tx.Frame.Header.Seq) })
	for i := 0; i < 5; i++ {
		st.Enqueue(dataFrame(MAC{2}, make([]byte, 50)))
	}
	eng.Run(1)
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("sequence numbers not increasing: %v", seqs)
		}
	}
}

func TestTransmissionsDoNotOverlap(t *testing.T) {
	eng, m := newTestMedium(3)
	a := m.AddStation("a", MAC{1}, Rate54)
	b := m.AddStation("b", MAC{2}, Rate54)
	var txs []*Transmission
	m.AddListener(func(tx *Transmission) { txs = append(txs, tx) })
	for i := 0; i < 50; i++ {
		a.Enqueue(dataFrame(MAC{9}, make([]byte, 500)))
		b.Enqueue(dataFrame(MAC{9}, make([]byte, 500)))
	}
	eng.Run(10)
	if len(txs) < 50 {
		t.Fatalf("too few transmissions: %d", len(txs))
	}
	for i := 1; i < len(txs); i++ {
		// Same-round collisions share airtime; otherwise no overlap.
		if txs[i].Start == txs[i-1].Start {
			if !txs[i].Collided || !txs[i-1].Collided {
				t.Fatalf("same-start transmissions not marked collided at %v", txs[i].Start)
			}
			continue
		}
		if txs[i].Start < txs[i-1].End-1e-12 && !txs[i].Collided && !txs[i-1].Collided {
			t.Fatalf("overlap: tx %d starts %v before %v", i, txs[i].Start, txs[i-1].End)
		}
	}
}

func TestContentionSharesAir(t *testing.T) {
	eng, m := newTestMedium(4)
	a := m.AddStation("a", MAC{1}, Rate54)
	b := m.AddStation("b", MAC{2}, Rate54)
	(&SaturatedSource{Station: a, Dst: MAC{9}, Payload: 1000}).Start()
	(&SaturatedSource{Station: b, Dst: MAC{9}, Payload: 1000}).Start()
	eng.Run(5)
	if a.DeliveredFrames == 0 || b.DeliveredFrames == 0 {
		t.Fatalf("starvation: a=%d b=%d", a.DeliveredFrames, b.DeliveredFrames)
	}
	ratio := float64(a.DeliveredFrames) / float64(b.DeliveredFrames)
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("unfair sharing: a=%d b=%d", a.DeliveredFrames, b.DeliveredFrames)
	}
	if a.CollidedFrames == 0 && b.CollidedFrames == 0 {
		t.Error("two saturated stations should occasionally collide")
	}
}

func TestCollisionRetryEventuallyDelivers(t *testing.T) {
	eng, m := newTestMedium(5)
	a := m.AddStation("a", MAC{1}, Rate54)
	b := m.AddStation("b", MAC{2}, Rate54)
	a.Enqueue(dataFrame(MAC{9}, make([]byte, 100)))
	b.Enqueue(dataFrame(MAC{9}, make([]byte, 100)))
	eng.Run(1)
	if a.DeliveredFrames+a.DroppedFrames != 1 || b.DeliveredFrames+b.DroppedFrames != 1 {
		t.Errorf("frames unresolved: a=%+v b=%+v", a, b)
	}
}

func TestPERLossTriggersRetry(t *testing.T) {
	eng, m := newTestMedium(6)
	st := m.AddStation("s", MAC{1}, Rate54)
	// Hopeless SNR: every data frame is lost at the receiver.
	st.SNR = func(float64) units.DB { return -30 }
	st.Enqueue(dataFrame(MAC{2}, make([]byte, 500)))
	eng.Run(1)
	if st.LostFrames == 0 {
		t.Error("expected channel losses at -30 dB SNR")
	}
	if st.DroppedFrames != 1 {
		t.Errorf("frame should be dropped after retries, dropped=%d", st.DroppedFrames)
	}
}

func TestCTSToSelfSetsNAV(t *testing.T) {
	eng, m := newTestMedium(7)
	reader := m.AddStation("reader", MAC{1}, Rate54)
	other := m.AddStation("other", MAC{2}, Rate54)
	var navStart, navEnd float64
	reader.OnNAVGranted = func(s, e float64) { navStart, navEnd = s, e }
	reader.Enqueue(NewCTSToSelf(reader.Addr, 0.004))
	eng.Run(0.0005)
	if navEnd == 0 {
		t.Fatal("NAV not granted")
	}
	if got := navEnd - navStart; math.Abs(got-0.004) > 1e-9 {
		t.Errorf("NAV window = %v, want 0.004", got)
	}
	// Another station's frame queued during the NAV must wait until it
	// expires.
	var txs []*Transmission
	m.AddListener(func(tx *Transmission) { txs = append(txs, tx) })
	other.Enqueue(dataFrame(MAC{9}, make([]byte, 100)))
	eng.Run(1)
	if len(txs) != 1 {
		t.Fatalf("saw %d transmissions, want 1", len(txs))
	}
	if txs[0].Start < navEnd {
		t.Errorf("station transmitted at %v inside NAV ending %v", txs[0].Start, navEnd)
	}
}

func TestTransmitInNAV(t *testing.T) {
	eng, m := newTestMedium(8)
	reader := m.AddStation("reader", MAC{1}, Rate54)
	var bursts []*Transmission
	m.AddListener(func(tx *Transmission) {
		if tx.Frame.Header.Type == TypeQoSNull {
			bursts = append(bursts, tx)
		}
	})
	reader.OnNAVGranted = func(start, end float64) {
		f := &Frame{Header: Header{Type: TypeQoSNull, Addr1: BroadcastMAC}}
		if err := m.TransmitInNAV(reader, f, Rate54, start+100e-6); err != nil {
			t.Errorf("TransmitInNAV: %v", err)
		}
		// A frame that does not fit must be rejected.
		huge := &Frame{Header: Header{Type: TypeData}, Payload: make([]byte, 60000)}
		if err := m.TransmitInNAV(reader, huge, Rate6, start+200e-6); err == nil {
			t.Error("oversized NAV transmission should fail")
		}
	}
	reader.Enqueue(NewCTSToSelf(reader.Addr, 0.004))
	eng.Run(1)
	if len(bursts) != 1 {
		t.Fatalf("saw %d NAV bursts, want 1", len(bursts))
	}
}

func TestTransmitInNAVRequiresOwnership(t *testing.T) {
	eng, m := newTestMedium(9)
	a := m.AddStation("a", MAC{1}, Rate54)
	_ = eng
	f := &Frame{Header: Header{Type: TypeQoSNull}}
	if err := m.TransmitInNAV(a, f, Rate54, 0); err == nil {
		t.Error("non-owner NAV transmission should fail")
	}
}

func TestQueueBound(t *testing.T) {
	_, m := newTestMedium(10)
	st := m.AddStation("s", MAC{1}, Rate54)
	accepted := 0
	for i := 0; i < MaxQueue+10; i++ {
		if st.Enqueue(dataFrame(MAC{2}, make([]byte, 10))) {
			accepted++
		}
	}
	if accepted != MaxQueue {
		t.Errorf("accepted %d, want %d", accepted, MaxQueue)
	}
	if st.DroppedFrames != 10 {
		t.Errorf("dropped %d, want 10", st.DroppedFrames)
	}
}

func TestBroadcastHasNoAck(t *testing.T) {
	eng, m := newTestMedium(11)
	st := m.AddStation("s", MAC{1}, Rate54)
	var unicastGap, bcastGap float64
	var last *Transmission
	m.AddListener(func(tx *Transmission) { last = tx })
	st.Enqueue(dataFrame(MAC{2}, make([]byte, 100)))
	eng.Run(0.01)
	unicastEnd := last.End
	unicastGap = m.busyUntil - unicastEnd
	st.Enqueue(dataFrame(BroadcastMAC, make([]byte, 100)))
	eng.Run(0.02)
	bcastGap = m.busyUntil - last.End
	if unicastGap <= 0 {
		t.Errorf("unicast should reserve ACK time, gap = %v", unicastGap)
	}
	if bcastGap != 0 {
		t.Errorf("broadcast should not reserve ACK time, gap = %v", bcastGap)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []float64 {
		eng, m := newTestMedium(42)
		a := m.AddStation("a", MAC{1}, Rate54)
		b := m.AddStation("b", MAC{2}, Rate24)
		var starts []float64
		m.AddListener(func(tx *Transmission) { starts = append(starts, tx.Start) })
		(&SaturatedSource{Station: a, Dst: MAC{9}, Payload: 700}).Start()
		(&CBRSource{Station: b, Dst: MAC{9}, Payload: 300, Interval: 0.002}).Start()
		eng.Run(1)
		return starts
	}
	r1, r2 := run(), run()
	if len(r1) != len(r2) {
		t.Fatalf("replay lengths differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, r1[i], r2[i])
		}
	}
}

func TestSaturationThroughputNearTheory(t *testing.T) {
	// One saturated station at 54 Mbps with 1400-byte frames: per-frame
	// cost = DIFS + avg backoff + airtime + SIFS + ACK. The simulated
	// goodput should land within ~15% of that figure.
	eng, m := newTestMedium(20)
	st := m.AddStation("s", MAC{1}, Rate54)
	(&SaturatedSource{Station: st, Dst: MAC{2}, Payload: 1400}).Start()
	eng.Run(5)
	frameLen := dataFrame(MAC{2}, make([]byte, 1400)).Length()
	perFrame := DIFS + float64(CWMin)/2*SlotTime + AirTime(frameLen, Rate54) + AckAirTime()
	theory := 5 / perFrame
	got := float64(st.DeliveredFrames)
	if math.Abs(got-theory)/theory > 0.15 {
		t.Errorf("saturation throughput %v frames, theory ~%v", got, theory)
	}
}

func TestCollisionRateGrowsWithStations(t *testing.T) {
	collisionFrac := func(n int) float64 {
		eng, m := newTestMedium(int64(30 + n))
		for i := 0; i < n; i++ {
			st := m.AddStation("s", MAC{byte(i + 1)}, Rate54)
			(&SaturatedSource{Station: st, Dst: MAC{99}, Payload: 800}).Start()
		}
		eng.Run(3)
		var sent, collided int
		for _, st := range m.stations {
			sent += st.SentFrames
			collided += st.CollidedFrames
		}
		return float64(collided) / float64(sent)
	}
	two, eight := collisionFrac(2), collisionFrac(8)
	if eight <= two {
		t.Errorf("collision fraction should grow with stations: 2→%v, 8→%v", two, eight)
	}
}
