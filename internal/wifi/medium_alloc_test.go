//go:build !race

// The race detector instruments allocations, so AllocsPerRun over-counts
// under -race; these assertions only run in the plain test pass.

package wifi

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

// TestContentionRoundAllocs pins the contention round's steady state:
// with three stations contending, the rounds of 20 ms of saturated
// traffic allocate nothing. Frames are values in their station's queue,
// a failed frame is retried in place at the head of it, and each listener
// gets its own copy of the Transmission. Scheduling the next round and
// the kick, and collecting the ready stations and the winners, allocate
// nothing either.
func TestContentionRoundAllocs(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMedium(eng, rng.New(1))
	f := Frame{Header: Header{Type: TypeData, Addr1: BroadcastMAC}, Payload: make([]byte, 200)}
	for j := 0; j < 3; j++ {
		st := m.AddStation("s", MAC{byte(j + 1)}, Rate54)
		for i := 0; i < 900; i++ {
			st.Enqueue(f)
		}
	}
	var txs, collided int
	m.AddListener(func(tx Transmission) {
		txs++
		if tx.Collided {
			collided++
		}
	})
	until := 0.0
	window := func() {
		txs, collided = 0, 0
		until += 0.02
		eng.Run(until)
	}
	allocs := testing.AllocsPerRun(1, window)
	if txs == 0 || collided == 0 {
		t.Fatalf("window saw %d transmissions, %d collided; want contention", txs, collided)
	}
	if allocs != 0 {
		t.Errorf("%d transmissions (%d collided): %v allocs, want 0", txs, collided, allocs)
	}
}

// TestTrafficSteadyStateAllocs holds the per-packet path to no
// allocation: once a medium carrying CBR, Poisson and TCP traffic is
// warm, a window of it allocates nothing, however many frames it
// delivers. A fifth station keeps a constant backlog, topped up on every
// delivery, so its queue is compacted in place (head > 0) inside the
// window rather than regrown.
func TestTrafficSteadyStateAllocs(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMedium(eng, rng.New(3))
	cbr := m.AddStation("cbr", MAC{1}, Rate54)
	poisson := m.AddStation("poisson", MAC{2}, Rate24)
	sender := m.AddStation("sender", MAC{3}, Rate54)
	receiver := m.AddStation("receiver", MAC{4}, Rate54)
	backlog := m.AddStation("backlog", MAC{5}, Rate54)
	if err := (&CBRSource{Station: cbr, Dst: MAC{9}, Payload: 200, Interval: 0.001}).Start(); err != nil {
		t.Fatal(err)
	}
	p, err := NewPoissonSource(poisson, MAC{9}, 300, 500, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	tcp, err := NewTCPSource(sender, receiver)
	if err != nil {
		t.Fatal(err)
	}
	if err := tcp.Start(); err != nil {
		t.Fatal(err)
	}
	// The delivered frame has left the queue before OnDelivered tops it
	// up, so a top-up that moves head back to 0 compacted it.
	f := dataFrame(MAC{9}, make([]byte, 100))
	var compactions int
	topUp := func() {
		for backlog.QueueLen() < 8 {
			backlog.Enqueue(f)
		}
	}
	backlog.OnDelivered = func(Frame, float64) {
		head := backlog.head
		topUp()
		if head > 0 && backlog.head == 0 {
			compactions++
		}
	}
	topUp()
	var delivered, acks int
	m.AddListener(func(tx Transmission) {
		if !tx.Collided && !tx.Lost {
			delivered++
		}
	})
	until := 2.0
	eng.Run(until) // warm: TCP's window opens fully, queues reach their size
	window := func() {
		delivered, compactions, acks = 0, 0, tcp.AcksReceived()
		until += 0.25
		eng.Run(until)
		acks = tcp.AcksReceived() - acks
	}
	allocs := testing.AllocsPerRun(1, window)
	if delivered < 500 || acks == 0 {
		t.Fatalf("window delivered %d frames and clocked %d TCP ACKs, want steady traffic", delivered, acks)
	}
	if compactions == 0 {
		t.Fatal("the backlogged queue never compacted in the window")
	}
	if allocs != 0 {
		t.Errorf("%d frames delivered (%d queue compactions): %v allocs, want 0", delivered, compactions, allocs)
	}
}
