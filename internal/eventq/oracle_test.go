package eventq

import (
	"math/rand"
	"sort"
	"testing"

	"switchpointer/internal/simtime"
)

// oracleEvent is the oracle's view of one scheduled event.
type oracleEvent struct {
	at     simtime.Time
	seq    uint64
	timer  Timer
	child  bool // its body schedules one more event
	dead   bool // stopped before it fired
	popped bool // fired or reaped
}

// sortOracle models the engine with a plain slice kept in (at, seq) order
// by sort.Slice, mirroring its lazy-cancel contract: a stopped event stays
// pending (and counted by Pending) until it reaches the front, where Step
// and RunUntil reap it.
type sortOracle struct {
	pending []*oracleEvent
	sorted  bool
	seq     uint64
}

func (o *sortOracle) add(ev *oracleEvent) {
	ev.seq = o.seq
	o.seq++
	o.pending = append(o.pending, ev)
	o.sorted = false
}

// reap sorts the pending events and drops the cancelled ones at the front.
func (o *sortOracle) reap() {
	if !o.sorted {
		sort.Slice(o.pending, func(i, j int) bool {
			a, b := o.pending[i], o.pending[j]
			if a.at != b.at {
				return a.at < b.at
			}
			return a.seq < b.seq
		})
		o.sorted = true
	}
	for len(o.pending) > 0 && o.pending[0].dead {
		o.pending[0].popped = true
		o.pending = o.pending[1:]
	}
}

// next removes and returns the earliest live event, or nil.
func (o *sortOracle) next() *oracleEvent {
	o.reap()
	if len(o.pending) == 0 {
		return nil
	}
	ev := o.pending[0]
	ev.popped = true
	o.pending = o.pending[1:]
	return ev
}

// stepOnce runs one Step and checks it against the oracle. A firing event
// checks itself (its body consumes the oracle's next event); a Step that
// finds nothing live must leave the oracle with nothing live either.
func stepOnce(t *testing.T, e *Engine, o *sortOracle) {
	t.Helper()
	if !e.Step() {
		if want := o.next(); want != nil {
			t.Fatalf("Step found no event, oracle expected %+v", want)
		}
	}
}

// TestEngineMatchesSortOracle is the engine's scheduling property test:
// under seeded random workloads that interleave scheduling (including from
// inside event bodies), Step, RunUntil, Run and Timer.Stop — on live,
// fired, stopped and recycled handles — every event must fire at the time
// and in the (at, seq) order the sort oracle predicts, Stop must report
// exactly the events it cancelled, and Pending must count the cancelled
// events the engine has not yet reaped. The time distributions cover heavy
// ties, sparse jumps, far-future stragglers and dense near-monotonic
// schedules; drain and fill bursts empty and refill the queue.
func TestEngineMatchesSortOracle(t *testing.T) {
	dists := []struct {
		name string
		gap  func(r *rand.Rand) simtime.Time
	}{
		{"near-monotonic", func(r *rand.Rand) simtime.Time { return simtime.Time(r.Intn(2000)) }},
		{"heavy-ties", func(r *rand.Rand) simtime.Time { return simtime.Time(r.Intn(3)) * 100 }},
		{"sparse-jumps", func(r *rand.Rand) simtime.Time {
			if r.Intn(10) == 0 {
				return simtime.Time(r.Intn(10)) * simtime.Second
			}
			return simtime.Time(r.Intn(50))
		}},
		{"far-stragglers", func(r *rand.Rand) simtime.Time {
			if r.Intn(100) == 0 {
				return simtime.Time(3600) * simtime.Second
			}
			return simtime.Time(r.Intn(500))
		}},
	}
	for _, d := range dists {
		t.Run(d.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(1))
			e := New()
			o := &sortOracle{}
			var history []*oracleEvent
			var schedule func(child bool)
			schedule = func(child bool) {
				ev := &oracleEvent{at: e.Now() + d.gap(r), child: child}
				o.add(ev)
				history = append(history, ev)
				ev.timer = e.At(ev.at, func() {
					if want := o.next(); want != ev || e.Now() != ev.at {
						t.Fatalf("fired seq %d at %v, oracle expected %+v", ev.seq, e.Now(), want)
					}
					if ev.child {
						schedule(false)
					}
				})
			}
			for op := 0; op < 5000; op++ {
				switch k := r.Intn(10); {
				case len(o.pending) == 0 || k < 3:
					// Fill bursts grow the heap past its previous capacity.
					for i := r.Intn(40) + 1; i > 0; i-- {
						schedule(r.Intn(4) == 0)
					}
				case k < 5:
					// Drain bursts can empty the queue entirely.
					for i := r.Intn(40) + 1; i > 0; i-- {
						stepOnce(t, e, o)
					}
				case k == 5:
					// Stop pending events (live or already stopped) and
					// stale handles whose arena slot may have been reused.
					for i := r.Intn(3) + 1; i > 0; i-- {
						ev := history[r.Intn(len(history))]
						if len(o.pending) > 0 && r.Intn(2) == 0 {
							ev = o.pending[r.Intn(len(o.pending))]
						}
						want := !ev.popped && !ev.dead
						if got := ev.timer.Stop(); got != want {
							t.Fatalf("Stop(seq %d) = %v, want %v (popped=%v dead=%v)", ev.seq, got, want, ev.popped, ev.dead)
						}
						ev.dead = true
					}
				case k == 6:
					until := e.Now() + d.gap(r)
					e.RunUntil(until)
					o.reap()
					if len(o.pending) > 0 && o.pending[0].at <= until {
						t.Fatalf("RunUntil(%v) left seq %d at %v pending", until, o.pending[0].seq, o.pending[0].at)
					}
					if e.Now() != until {
						t.Fatalf("RunUntil(%v) left the clock at %v", until, e.Now())
					}
				default:
					stepOnce(t, e, o)
				}
				if e.Pending() != len(o.pending) {
					t.Fatalf("op %d: Pending = %d, oracle holds %d", op, e.Pending(), len(o.pending))
				}
			}
			e.Run()
			for _, ev := range o.pending {
				if !ev.dead {
					t.Fatalf("Run returned with seq %d at %v still live", ev.seq, ev.at)
				}
			}
			if e.Pending() != len(o.pending) {
				t.Fatalf("after Run: Pending = %d, oracle holds %d cancelled", e.Pending(), len(o.pending))
			}
		})
	}
}
