package sim

import (
	"math"
	"testing"
)

func TestRunInOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(0.3, func() { order = append(order, 3) })
	e.Schedule(0.1, func() { order = append(order, 1) })
	e.Schedule(0.2, func() { order = append(order, 2) })
	if n := e.Run(1); n != 3 {
		t.Fatalf("executed %d events, want 3", n)
	}
	for i, v := range []int{1, 2, 3} {
		if order[i] != v {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(0.5, func() { order = append(order, i) })
	}
	e.Run(1)
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events out of scheduling order: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := NewEngine()
	var at float64
	e.Schedule(2.5, func() { at = e.Now() })
	e.Run(10)
	if at != 2.5 {
		t.Errorf("event ran at %v, want 2.5", at)
	}
	if e.Now() != 10 {
		t.Errorf("drained engine clock = %v, want horizon 10", e.Now())
	}
}

func TestRunHorizonExclusive(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(1, func() { ran++ })
	e.Schedule(5, func() { ran++ })
	if n := e.Run(3); n != 1 {
		t.Fatalf("Run(3) executed %d, want 1", n)
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	// The late event still runs on a later horizon.
	e.Run(10)
	if ran != 2 {
		t.Errorf("ran = %d, want 2", ran)
	}
}

func TestEventAtHorizonRuns(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(3, func() { ran = true })
	e.Run(3)
	if !ran {
		t.Error("event exactly at horizon should run")
	}
}

func TestCascadingEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.Schedule(0.01, tick)
		}
	}
	e.Schedule(0, tick)
	e.Run(2)
	if count != 100 {
		t.Errorf("cascade count = %d, want 100", count)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {
		e.Schedule(-5, func() {
			if e.Now() != 1 {
				t.Errorf("negative delay ran at %v, want 1", e.Now())
			}
		})
	})
	e.Run(2)
}

func TestScheduleAtPastClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {
		e.ScheduleAt(0.5, func() {
			if e.Now() < 1 {
				t.Errorf("past event ran at %v, want >= 1", e.Now())
			}
		})
	})
	e.Run(2)
}

func TestNilFunctionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil fn should panic")
		}
	}()
	NewEngine().Schedule(1, nil)
}

func TestReentrantRunPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(0.1, func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Run should panic")
			}
		}()
		e.Run(5)
	})
	e.Run(1)
}

func TestPendingCount(t *testing.T) {
	e := NewEngine()
	if e.Pending() != 0 {
		t.Error("fresh engine should have no pending events")
	}
	e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	if e.Pending() != 2 {
		t.Errorf("pending = %d, want 2", e.Pending())
	}
}

func TestStringer(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {})
	if got := e.String(); got == "" {
		t.Error("String should not be empty")
	}
}

func TestNaNTimePanics(t *testing.T) {
	for _, schedule := range []func(*Engine){
		func(e *Engine) { e.ScheduleAt(math.NaN(), func() {}) },
		func(e *Engine) { e.Schedule(math.NaN(), func() {}) },
	} {
		e := NewEngine()
		func() {
			defer func() {
				if recover() == nil {
					t.Error("a NaN time should panic")
				}
			}()
			schedule(e)
		}()
		if e.Pending() != 0 {
			t.Errorf("a NaN time was queued: %d pending", e.Pending())
		}
	}
}
