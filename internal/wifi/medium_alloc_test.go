//go:build !race

// The race detector instruments allocations, so AllocsPerRun over-counts
// under -race; this assertion only runs in the plain test pass.

package wifi

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

// TestContentionRoundAllocs pins the contention round's steady state:
// with three stations contending, the rounds of 20 ms of saturated
// traffic allocate only the Transmission each hands its listeners: a
// failed frame is retried in place at the head of its queue. Scheduling
// the next round and the kick, and collecting the ready stations and the
// winners, allocate nothing.
func TestContentionRoundAllocs(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMedium(eng, rng.New(1))
	f := &Frame{Header: Header{Type: TypeData, Addr1: BroadcastMAC}, Payload: make([]byte, 200)}
	for j := 0; j < 3; j++ {
		st := m.AddStation("s", MAC{byte(j + 1)}, Rate54)
		for i := 0; i < 900; i++ {
			st.Enqueue(f)
		}
	}
	var txs, collided int
	m.AddListener(func(tx *Transmission) {
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
	if budget := float64(txs); allocs > budget {
		t.Errorf("%d transmissions (%d collided): %v allocs, want at most %v", txs, collided, allocs, budget)
	}
}
