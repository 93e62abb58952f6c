package main

import (
	"math"
	"runtime"
	"runtime/metrics"
)

// goReading is a snapshot of the Go runtime counters the benchmark reports.
// Readings bracket the measured phase only, so work a change moves into
// set-up shows in setup_s and heap_mb instead of vanishing.
type goReading struct {
	allocBytes float64 // cumulative heap bytes allocated
	gcCycles   float64 // completed GC cycles
	gcPauseS   float64 // cumulative stop-the-world GC pause, seconds
}

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

func readGo() goReading {
	s := make([]metrics.Sample, len(goSamples))
	copy(s, goSamples)
	metrics.Read(s)
	return goReading{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCycles:   float64(s[1].Value.Uint64()),
		gcPauseS:   histogramSum(s[2].Value.Float64Histogram()),
	}
}

func (r goReading) sub(before goReading) goReading {
	return goReading{
		allocBytes: r.allocBytes - before.allocBytes,
		gcCycles:   r.gcCycles - before.gcCycles,
		gcPauseS:   r.gcPauseS - before.gcPauseS,
	}
}

func (r goReading) add(o goReading) goReading {
	return goReading{
		allocBytes: r.allocBytes + o.allocBytes,
		gcCycles:   r.gcCycles + o.gcCycles,
		gcPauseS:   r.gcPauseS + o.gcPauseS,
	}
}

// histogramSum estimates the total of a runtime histogram from bucket
// midpoints (an open-ended bucket contributes its finite edge).
func histogramSum(h *metrics.Float64Histogram) float64 {
	sum := 0.0
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		var mid float64
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		default:
			mid = (lo + hi) / 2
		}
		sum += float64(n) * mid
	}
	return sum
}

// liveHeapMB forces a collection and returns the live heap in MB. The
// second collection empties the sync.Pool victim caches the first one
// filled, so pooled scratch objects do not count as live state.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
