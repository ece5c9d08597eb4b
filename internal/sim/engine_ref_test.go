package sim

import (
	"container/heap"
	"math"
	"testing"

	"repro/internal/rng"
)

// The exactness oracle for the value-typed event queue: the scheduler
// over container/heap with pointer events that it replaced, kept verbatim
// apart from its metrics and programmer-error asserts (renamed with a ref
// prefix). Engine must dispatch every schedule in the same order.

type refEngine struct {
	q   refEventQueue
	now float64
	seq int64
}

func (e *refEngine) ScheduleAt(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.q, &event{at: t, seq: e.seq, fn: fn})
}

func (e *refEngine) Run(until float64) int {
	n := 0
	for e.q.Len() > 0 {
		ev := e.q[0]
		if ev.at > until {
			break
		}
		heap.Pop(&e.q)
		e.now = ev.at
		ev.fn()
		n++
	}
	if e.now < until && e.q.Len() == 0 {
		e.now = until
	}
	return n
}

type refEventQueue []*event

func (q refEventQueue) Len() int { return len(q) }

func (q refEventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q refEventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *refEventQueue) Push(x any) { *q = append(*q, x.(*event)) }

func (q *refEventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// scheduler is what the random schedule drives: Engine or refEngine.
type scheduler interface {
	ScheduleAt(t float64, fn func())
	Run(until float64) int
}

// randomSchedule seeds s with a random schedule whose times come from a
// few coarse values, so many events tie, and whose events schedule more
// events (some in the past, which clamp to now). It returns the log the
// events append their ids to.
func randomSchedule(s scheduler, now func() float64, seed int64) *[]int {
	r := rng.New(seed)
	var order []int
	id := 0
	var add func(base float64, depth int)
	add = func(base float64, depth int) {
		at := base + math.Floor(r.Float64()*8)*0.25 - 0.5
		me := id
		id++
		children := 0
		if depth < 3 {
			children = r.Intn(3)
		}
		s.ScheduleAt(at, func() {
			order = append(order, me)
			for i := 0; i < children; i++ {
				add(now(), depth+1)
			}
		})
	}
	for i := 0; i < 200; i++ {
		add(0, 0)
	}
	return &order
}

func TestEngineMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		e := NewEngine()
		ref := &refEngine{}
		got := randomSchedule(e, e.Now, seed)
		want := randomSchedule(ref, func() float64 { return ref.now }, seed)
		for _, until := range []float64{0.5, 1.25, 1.25, 2, 100} {
			if g, w := e.Run(until), ref.Run(until); g != w {
				t.Fatalf("seed %d: Run(%v) dispatched %d events, reference %d", seed, until, g, w)
			}
			if e.Now() != ref.now || e.Pending() != ref.q.Len() {
				t.Fatalf("seed %d after Run(%v): now %v pending %d, reference now %v pending %d",
					seed, until, e.Now(), e.Pending(), ref.now, ref.q.Len())
			}
		}
		if len(*got) != len(*want) {
			t.Fatalf("seed %d: dispatched %d events, reference %d", seed, len(*got), len(*want))
		}
		for i := range *want {
			if (*got)[i] != (*want)[i] {
				t.Fatalf("seed %d: dispatch %d is event %d, reference %d", seed, i, (*got)[i], (*want)[i])
			}
		}
	}
}
