package main

import (
	"container/heap"
	"encoding/json"
	"maps"
	"math/rand/v2"
	"slices"
	"sort"
	"time"
)

// The benchmark runs on a shared machine whose speed drifts by up to 2x
// over minutes, as other tenants come and go. A median over one run
// smooths seconds of noise but not that drift, so two runs of the same
// code minutes apart read far apart. To cancel it, every run interleaves
// short calibration slices with its set-up and its measured phase: a
// fixed, benchmark-owned unit of Go work (allocation, a map, a heap, a
// sort, JSON) that no change to the program can speed up. Each phase's
// wall-clock end-to-end metrics are then scaled, by the units of the
// slices run in that phase, to a reference machine on which one unit
// takes calRefMS:
//
//	time_ref = time_measured * calRefMS / mean(unit ms)
//	rate_ref = rate_measured * mean(unit ms) / calRefMS
//
// A program change moves the measured times and leaves the units alone,
// so it shows in full; the machine's drift moves both and cancels. The
// raw figures and each phase's mean unit time are printed beside them.

// calRefMS is the reference machine's unit time: about what one unit took
// on the 2-vCPU VM the bounds were set on.
const calRefMS = 1.5

// calSliceUnits is how many units one calibration slice runs; a slice
// takes about 50 ms.
const calSliceUnits = 32

type calItem struct {
	Key  uint64  `json:"key"`
	At   int64   `json:"at"`
	Name string  `json:"name"`
	W    float64 `json:"w"`
}

type calHeap []*calItem

func (h calHeap) Len() int           { return len(h) }
func (h calHeap) Less(i, j int) bool { return h[i].At < h[j].At }
func (h calHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)        { *h = append(*h, x.(*calItem)) }
func (h *calHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// calUnit does the fixed unit of work and returns a checksum of it.
func calUnit() uint64 {
	rng := rand.New(rand.NewPCG(1, 2))
	const n = 2048
	items := make([]*calItem, n)
	byKey := make(map[uint64]*calItem, 64)
	var h calHeap
	for i := range items {
		it := &calItem{Key: rng.Uint64(), At: rng.Int64N(1 << 20), Name: "unit", W: rng.Float64()}
		items[i] = it
		byKey[it.Key] = it
		heap.Push(&h, it)
	}
	var sum uint64
	for _, it := range items {
		sum += byKey[it.Key].Key
	}
	for h.Len() > 0 {
		sum += uint64(heap.Pop(&h).(*calItem).At)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].W < items[j].W })
	raw, _ := json.Marshal(items[:256])
	var back []calItem
	_ = json.Unmarshal(raw, &back)
	return sum + uint64(len(back)) + uint64(len(raw))
}

// calibration collects the unit times of one run.
type calibration struct {
	unitsMS []float64
	sum     uint64
	// spent is what the slices cost the Go runtime, so runtime readings
	// around a measured phase can leave the slices out.
	spent goReading
}

// slice runs one calibration slice on the calling goroutine.
func (c *calibration) slice() {
	g0 := readGo()
	for range calSliceUnits {
		t0 := time.Now()
		c.sum += calUnit()
		c.unitsMS = append(c.unitsMS, float64(time.Since(t0))/1e6)
	}
	c.spent = c.spent.add(readGo().sub(g0))
}

// unitMS is the run's mean unit time. Not the median: the machine flips
// between fast and slow spells shorter than a slice, so unit times are
// bimodal, and their median jumps between the modes with small changes
// in the mix while the mean follows the mix smoothly, as the program's
// throughput does.
func (c *calibration) unitMS() float64 {
	sum := 0.0
	for _, u := range c.unitsMS {
		sum += u
	}
	return perOp(sum, len(c.unitsMS))
}

// scale stores wall times and rates measured in one phase of the run in
// rep.metrics, scaled to the reference machine by the units of the slices
// run in that phase, and notes the measured figures.
func (c *calibration) scale(rep *report, phase string, times, rates map[string]float64) {
	u := c.unitMS()
	for _, name := range slices.Sorted(maps.Keys(times)) {
		rep.metrics[name] = times[name] * calRefMS / u
		rep.note("measured %s = %.6g", name, times[name])
	}
	for _, name := range slices.Sorted(maps.Keys(rates)) {
		rep.metrics[name] = rates[name] * u / calRefMS
		rep.note("measured %s = %.6g", name, rates[name])
	}
	rep.note("calibration, %s: mean unit %.4g ms over %d units (reference %.4g ms); its wall-clock metrics are scaled by %.4g", phase, u, len(c.unitsMS), calRefMS, calRefMS/u)
}
