package eventq

import (
	"fmt"
	"math/rand"
	"testing"

	"switchpointer/internal/simtime"
)

func TestOrderingByTime(t *testing.T) {
	e := New()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
	if e.Processed() != 3 {
		t.Fatalf("Processed = %d", e.Processed())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of order at %d: %v", i, v)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	e := New()
	var trace []simtime.Time
	e.At(10, func() {
		trace = append(trace, e.Now())
		e.After(5, func() { trace = append(trace, e.Now()) })
	})
	e.Run()
	if len(trace) != 2 || trace[0] != 10 || trace[1] != 15 {
		t.Fatalf("trace = %v", trace)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Errorf("expected panic scheduling in the past")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestTimerStop(t *testing.T) {
	e := New()
	fired := false
	tm := e.At(10, func() { fired = true })
	if !tm.Stop() {
		t.Fatalf("Stop should report true for pending event")
	}
	if tm.Stop() {
		t.Fatalf("second Stop should report false")
	}
	e.Run()
	if fired {
		t.Fatalf("cancelled event fired")
	}
}

func TestStopAfterFire(t *testing.T) {
	e := New()
	tm := e.At(10, func() {})
	e.Run()
	if tm.Stop() {
		t.Fatalf("Stop after fire should report false")
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var got []simtime.Time
	for _, at := range []simtime.Time{5, 10, 15, 20} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.RunUntil(12)
	if len(got) != 2 || e.Now() != 12 {
		t.Fatalf("got=%v now=%v", got, e.Now())
	}
	e.RunFor(3) // to t=15
	if len(got) != 3 || e.Now() != 15 {
		t.Fatalf("after RunFor: got=%v now=%v", got, e.Now())
	}
	e.Run()
	if len(got) != 4 {
		t.Fatalf("final got=%v", got)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := New()
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
}

func TestEvery(t *testing.T) {
	e := New()
	count := 0
	tm := e.Every(10, func() { count++ })
	e.RunUntil(55)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	tm.Stop()
	e.RunUntil(200)
	if count != 5 {
		t.Fatalf("count after stop = %d, want 5", count)
	}
}

func TestEveryPanicsOnZeroPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	New().Every(0, func() {})
}

func TestPendingCount(t *testing.T) {
	e := New()
	e.At(1, func() {})
	e.At(2, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending after run = %d", e.Pending())
	}
}

func TestStepOnEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatalf("Step on empty queue should report false")
	}
}

func TestManyEventsStress(t *testing.T) {
	e := New()
	const n = 20000
	var last simtime.Time = -1
	ok := true
	// Insert in a scrambled but deterministic order.
	for i := 0; i < n; i++ {
		at := simtime.Time((i * 7919) % n)
		e.At(at, func() {
			if at < last {
				ok = false
			}
			last = at
		})
	}
	e.Run()
	if !ok {
		t.Fatalf("events executed out of time order")
	}
}

func TestWeakEventsDoNotKeepRunAlive(t *testing.T) {
	e := New()
	weakFired := 0
	e.EveryWeak(10, func() { weakFired++ })
	fired := false
	e.At(35, func() { fired = true })
	e.Run() // must terminate despite the unbounded weak series
	if !fired {
		t.Fatalf("strong event did not fire")
	}
	// Weak ticks at 10, 20, 30 ran while strong work remained.
	if weakFired != 3 {
		t.Fatalf("weak ticks = %d, want 3", weakFired)
	}
	if e.Now() != 35 {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestWeakOnlyRunTerminatesImmediately(t *testing.T) {
	e := New()
	e.AtWeak(10, func() { t.Errorf("weak-only event fired under Run") })
	e.Run()
	if e.Now() != 0 {
		t.Fatalf("Run advanced time with only weak events pending")
	}
}

func TestRunUntilStillDrivesWeakEvents(t *testing.T) {
	e := New()
	n := 0
	e.EveryWeak(10, func() { n++ })
	e.RunUntil(45)
	if n != 4 {
		t.Fatalf("weak ticks under RunUntil = %d, want 4", n)
	}
}

func TestStopWeakAndStrongAccounting(t *testing.T) {
	e := New()
	st := e.At(10, func() {})
	wk := e.AtWeak(20, func() {})
	if !st.Stop() || !wk.Stop() {
		t.Fatalf("stops failed")
	}
	e.At(5, func() {})
	e.Run() // must not hang or panic on accounting
	if e.Now() != 5 {
		t.Fatalf("Now = %v", e.Now())
	}
}

// BenchmarkQueuePopNearMonotonic is the scheduling queue's layer
// benchmark: a packet-arrival-like schedule (pop one, push one a small
// forward gap later) over a standing population of pending events.
func BenchmarkQueuePopNearMonotonic(b *testing.B) {
	for _, standing := range []int{64, 4096} {
		b.Run(fmt.Sprintf("standing=%d", standing), func(b *testing.B) {
			var q heapQueue
			r := rand.New(rand.NewSource(42))
			var now simtime.Time
			var seq uint64
			for i := 0; i < standing; i++ {
				q.push(entry{at: now + simtime.Time(r.Intn(10000)), seq: seq})
				seq++
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := q.pop()
				now = e.at
				q.push(entry{at: now + simtime.Time(r.Intn(2000)), seq: seq})
				seq++
			}
		})
	}
}
