package transport

import (
	"testing"

	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

// TestMeterRecordZeroAlloc gates the steady-state meter path: recording
// into existing buckets performs zero heap allocations, and extending the
// series stays amortized allocation-free (geometric growth).
func TestMeterRecordZeroAlloc(t *testing.T) {
	m := NewMeter(simtime.Millisecond)
	m.Record(100, 0) // materialize the series
	now := simtime.Time(0)
	allocs := testing.AllocsPerRun(1000, func() {
		m.Record(1500, now)
		now += 10 * simtime.Microsecond // stays in bucket 0..<capacity
	})
	if allocs != 0 {
		t.Fatalf("Meter.Record steady state: %v allocs/op, want 0", allocs)
	}
	if m.TotalBytes() == 0 || m.Buckets() == 0 {
		t.Fatal("records lost")
	}
}

// TestMeterGrowthPreservesSeries asserts the geometric regrowth keeps
// earlier buckets intact.
func TestMeterGrowthPreservesSeries(t *testing.T) {
	m := NewMeter(simtime.Millisecond)
	for i := 0; i < 300; i++ {
		m.Record(1000, simtime.Time(i)*simtime.Millisecond)
		m.Record(500, simtime.Time(i)*simtime.Millisecond+simtime.Microsecond)
	}
	for i := 0; i < 300; i++ {
		if m.BytesAt(i) != 1500 {
			t.Fatalf("bucket %d = %d, want 1500", i, m.BytesAt(i))
		}
	}
	if m.TotalBytes() != 300*1500 {
		t.Fatalf("total = %d", m.TotalBytes())
	}
}

// TestTCPRTORearmZeroAlloc gates the retransmission-timer re-arm that every
// new ACK performs: with the event engine warm, armRTO allocates nothing
// (no per-call method-value closure for the timer body).
func TestTCPRTORearmZeroAlloc(t *testing.T) {
	net, tp := buildDumbbell(t, netsim.QueueFIFO)
	src, _ := tp.HostByName("L1")
	dst, _ := tp.HostByName("R1")
	s, _ := StartTCP(net, src, dst, TCPConfig{Start: simtime.Second})
	// A re-arm leaves the stopped timer queued until its deadline, so warm
	// the engine's arena and queue for more re-arms than are measured, then
	// reap them: the one live timer fires with nothing in flight.
	for i := 0; i < 2048; i++ {
		s.armRTO(0)
	}
	net.RunUntil(s.rto)
	allocs := testing.AllocsPerRun(1000, func() { s.armRTO(net.Now()) })
	if allocs != 0 {
		t.Fatalf("TCPSender.armRTO: %v allocs/op, want 0", allocs)
	}
	if s.Timeouts != 0 || s.SentSegments != 0 {
		t.Fatalf("warm-up sent %d segments, %d timeouts; want none", s.SentSegments, s.Timeouts)
	}
}
