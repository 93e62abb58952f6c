package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// outcome classifies one measured operation.
type outcome int

const (
	opOK outcome = iota
	// opKnownDefect is a wrong report that matches the documented known
	// defect exactly (see knownDefect in refcheck.go). It counts as a
	// failure like any other.
	opKnownDefect
	// opFailed is an error, a refusal, a report that differs from its
	// reference in any other way, or a simulation that diverged.
	opFailed
)

// accounting counts attempted operations and their failures, both per
// operation and per distinct input (one diagnosis target, one scenario
// play of the sequence). The program is deterministic, so every repeat of
// an input must give the same verdict: the per-input counts depend only on
// the seed and the program, not on how many repeats fit in the measured
// time, and they are what the result line reports.
type accounting struct {
	attempted  int
	known      int
	unexpected int
	// worst is the worst outcome seen per input index.
	worst map[int]outcome
}

func (a *accounting) add(input int, o outcome) {
	a.attempted++
	switch o {
	case opKnownDefect:
		a.known++
	case opFailed:
		a.unexpected++
	}
	a.mark(input, o)
}

func (a *accounting) mark(input int, o outcome) {
	if a.worst == nil {
		a.worst = map[int]outcome{}
	}
	if w, ok := a.worst[input]; !ok || o > w {
		a.worst[input] = o
	}
}

func (a *accounting) merge(b accounting) {
	a.attempted += b.attempted
	a.known += b.known
	a.unexpected += b.unexpected
	for in, o := range b.worst {
		a.mark(in, o)
	}
}

func (a accounting) failed() int { return a.known + a.unexpected }

// inputs returns how many distinct inputs ran and how many of them failed
// at least once.
func (a accounting) inputs() (ran, failed int) {
	for _, o := range a.worst {
		if o != opOK {
			failed++
		}
	}
	return len(a.worst), failed
}

// failRatio is failed / attempted operations; every failure counts, the
// known defect included.
func (a accounting) failRatio() float64 {
	if a.attempted == 0 {
		return 0
	}
	return float64(a.failed()) / float64(a.attempted)
}

// correct reports whether every failure is the documented known defect.
// Failures of that defect still count in failed(), inputs() and
// failRatio().
func (a accounting) correct() bool { return a.unexpected == 0 }

// percentile returns the nearest-rank p-th percentile of xs and how many
// samples lie beyond it. xs need not be sorted; it is sorted in place.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	rank = max(1, min(rank, len(xs)))
	return xs[rank-1], len(xs) - rank
}

// sample is one measured operation.
type sample struct {
	end  time.Duration // completion, from the start of the measured phase
	lat  time.Duration
	ok   bool
	pkts uint64 // packets a sim-fabric play forwarded
}

// blockStats summarizes consecutive samples: latency percentiles over the
// correct operations, and correct operations and packets per second.
type blockStats struct {
	p50, p99, opsPerS, pktsPerS float64
}

// medianOfBlocks splits samples, sorted by completion, into consecutive
// blocks of size n (a short tail joins the block before it), summarizes
// each, and returns the median of each statistic across blocks. The
// median across blocks keeps a few seconds of outside load on a shared
// machine from moving the run's figures.
func medianOfBlocks(samples []sample, n int) (blockStats, int) {
	var p50s, p99s, ops, pkts []float64
	prevEnd := time.Duration(0)
	for lo := 0; lo < len(samples); {
		hi := lo + n
		if len(samples)-hi < n {
			hi = len(samples)
		}
		lat := okLatencies(samples[lo:hi])
		var pk uint64
		for _, s := range samples[lo:hi] {
			pk += s.pkts
		}
		end := samples[hi-1].end
		secs := (end - prevEnd).Seconds()
		prevEnd = end
		if len(lat) > 0 {
			p50, _ := percentile(lat, 50)
			p99, _ := percentile(lat, 99)
			p50s, p99s = append(p50s, p50), append(p99s, p99)
		}
		ops = append(ops, float64(len(lat))/secs)
		pkts = append(pkts, float64(pk)/secs)
		lo = hi
	}
	return blockStats{median(p50s), median(p99s), median(ops), median(pkts)}, len(ops)
}

// okLatencies returns the latencies of the correct operations, in ms.
func okLatencies(samples []sample) []float64 {
	var xs []float64
	for _, s := range samples {
		if s.ok {
			xs = append(xs, float64(s.lat)/1e6)
		}
	}
	return xs
}

// describePercentiles renders p50/p99 with the sample count behind them.
func describePercentiles(what string, xs []float64) string {
	p50, _ := percentile(xs, 50)
	p99, beyond := percentile(xs, 99)
	return fmt.Sprintf("%s: p50 %.4g ms, p99 %.4g ms over %d samples (%d beyond p99)", what, p50, p99, len(xs), beyond)
}

// median returns the median of xs (mean of the middle two for even
// lengths); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// perOp divides a total by an operation count, 0 when nothing ran.
func perOp(total float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}
