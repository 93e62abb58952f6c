package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"switchpointer/internal/cluster"
)

// play is one scenario build played to its horizon.
type play struct {
	name string
	m, n int
}

func (p play) String() string { return fmt.Sprintf("%s(m=%d,n=%d)", p.name, p.m, p.n) }

// simCounts is what one play did, read from the program's public counters
// once the testbed is idle.
type simCounts struct {
	events, forwarded, portDrops   uint64
	touches, pushBytes             uint64
	received, decodeErrors, alerts uint64
	records                        uint64
	lockAcquires, lockContended    uint64
}

func countsOf(s *cluster.Scenario) simCounts {
	tb := s.Testbed
	c := simCounts{events: tb.Net.Engine.Processed(), alerts: uint64(len(tb.Alerts))}
	for _, sw := range tb.Net.Switches() {
		c.forwarded += sw.ForwardedPkts
		for _, pt := range sw.Ports() {
			c.portDrops += pt.Drops
		}
	}
	for _, ag := range tb.SwitchAgents {
		c.touches += ag.Pointer().Touches()
		_, b := ag.PushStats()
		c.pushBytes += b
	}
	for _, ag := range tb.HostAgents {
		c.received += ag.Received
		c.decodeErrors += ag.DecodeErrors
		c.records += uint64(ag.Store.Len())
		acq, cont := ag.Store.LockStats()
		c.lockAcquires += acq
		c.lockContended += cont
	}
	return c
}

// sameRun reports whether two plays of one input did the same work: the
// simulation is deterministic, so these counts must repeat exactly.
func (c simCounts) sameRun(o simCounts) bool {
	return c.events == o.events && c.forwarded == o.forwarded &&
		c.records == o.records && c.alerts == o.alerts
}

func (c *simCounts) add(o simCounts) {
	c.events += o.events
	c.forwarded += o.forwarded
	c.portDrops += o.portDrops
	c.touches += o.touches
	c.pushBytes += o.pushBytes
	c.received += o.received
	c.decodeErrors += o.decodeErrors
	c.alerts += o.alerts
	c.records += o.records
	c.lockAcquires += o.lockAcquires
	c.lockContended += o.lockContended
}

// simTotals accumulates plays: wall time split at the BuildScenario/Run
// boundary, bytes allocated across both calls, and the counters.
type simTotals struct {
	plays          int
	buildS, runS   float64
	allocB         float64
	virtualMS      float64
	counts         simCounts
	samples        []sample
	firstDivergent string
}

func (t *simTotals) merge(o *simTotals) {
	t.plays += o.plays
	t.buildS += o.buildS
	t.runS += o.runS
	t.allocB += o.allocB
	t.virtualMS += o.virtualMS
	t.counts.add(o.counts)
	t.samples = append(t.samples, o.samples...)
	if t.firstDivergent == "" {
		t.firstDivergent = o.firstDivergent
	}
}

// playOnce builds p, lets arm install anything that must exist before the
// workload plays (retention), and runs it to its horizon.
func (t *simTotals) playOnce(p play, arm func(*cluster.Scenario) error) (*cluster.Scenario, simCounts, error) {
	g0 := readGo()
	t0 := time.Now()
	s, err := cluster.BuildScenario(p.name, p.m, p.n)
	if err != nil {
		return nil, simCounts{}, fmt.Errorf("build %v: %w", p, err)
	}
	t1 := time.Now()
	if arm != nil {
		if err := arm(s); err != nil {
			return nil, simCounts{}, err
		}
	}
	t2 := time.Now()
	end := s.Run()
	t3 := time.Now()
	alloc := readGo().sub(g0).allocBytes
	c := countsOf(s)
	t.plays++
	t.buildS += t1.Sub(t0).Seconds()
	t.runS += t3.Sub(t2).Seconds()
	t.allocB += alloc
	t.virtualMS += float64(end) / 1e6
	t.counts.add(c)
	return s, c, nil
}

// wallS is the wall time spent inside BuildScenario and Run.
func (t *simTotals) wallS() float64 { return t.buildS + t.runS }

// layerMetrics are the simulator-side per-layer metrics, per play.
func (t *simTotals) layerMetrics(m map[string]float64) {
	c := t.counts
	m["scenario.build_s"] = perOp(t.buildS, t.plays)
	m["scenario.run_s"] = perOp(t.runS, t.plays)
	m["eventq.events"] = perOp(float64(c.events), t.plays)
	m["eventq.events_per_pkt"] = perOp(float64(c.events), int(c.forwarded))
	m["netsim.pkts_forwarded"] = perOp(float64(c.forwarded), t.plays)
	m["netsim.port_drops"] = perOp(float64(c.portDrops), t.plays)
	m["pointer.touches"] = perOp(float64(c.touches), t.plays)
	m["pointer.push_bytes"] = perOp(float64(c.pushBytes), t.plays)
	m["hostagent.pkts_received"] = perOp(float64(c.received), t.plays)
	m["hostagent.decode_errors"] = perOp(float64(c.decodeErrors), t.plays)
	m["hostagent.alerts"] = perOp(float64(c.alerts), t.plays)
	m["store.records"] = perOp(float64(c.records), t.plays)
	m["store.lock_contended_ratio"] = perOp(float64(c.lockContended), int(c.lockAcquires))
}

// simSequence is sim-fabric's fixed-length play list for a seed. Each
// scenario family is stratified over its parameter range (loadimbalance n
// in eight strata of 16–96, priority/microburst m in eight strata of
// 1–16), so every seed covers the whole range with the same mix and seeds
// differ in the points drawn inside each stratum and in the order. The
// largest play, loadimbalance n=96, always comes last: its testbed is
// still held when heap_mb is read.
func simSequence(seed uint64) []play {
	rng := rand.New(rand.NewPCG(seed, 0x5eed5f1b))
	seq := []play{{name: "cascade"}, {name: "cascade"}, {name: "redlights"}, {name: "redlights"}}
	for i := range 7 {
		seq = append(seq, play{name: "loadimbalance", n: 16 + 10*i + rng.IntN(10)})
	}
	bursts := []string{"priority", "priority", "priority", "priority", "microburst", "microburst", "microburst", "microburst"}
	rng.Shuffle(len(bursts), func(i, j int) { bursts[i], bursts[j] = bursts[j], bursts[i] })
	for i, name := range bursts {
		seq = append(seq, play{name: name, m: 2*i + 1 + rng.IntN(2)})
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return append(seq, play{name: "loadimbalance", n: 96})
}

// runSimFabric plays the seeded sequence on one goroutine: set-up plays it
// simSetups times to record the reference counts (and checks that they
// repeat), the measured phase replays whole passes until the time is up and
// checks every play against its reference.
func runSimFabric(seed uint64, measure time.Duration, traced bool) (*report, error) {
	seq := simSequence(seed)
	rep := &report{metrics: map[string]float64{}}
	rep.note("sim-fabric: %d plays per pass: %v", len(seq), seq)

	var ref []simCounts
	var setups []float64
	var setupCal calibration
	setupCal.slice()
	for r := 0; r < simSetups; r++ {
		var t simTotals
		start := time.Now()
		for i, p := range seq {
			s, c, err := t.playOnce(p, nil)
			if err != nil {
				return nil, err
			}
			s.Testbed.Close()
			if r == 0 {
				ref = append(ref, c)
			} else if !c.sameRun(ref[i]) {
				return nil, fmt.Errorf("set-up pass %d: %v diverged from the first pass: %+v vs %+v", r, p, c, ref[i])
			}
		}
		setups = append(setups, time.Since(start).Seconds())
		setupCal.slice()
	}

	// pass plays the sequence once into t and checks every play against
	// its reference. The last play's scenario stays open until the next
	// play starts, so heap_mb sees its testbed.
	var last *cluster.Scenario
	defer func() {
		if last != nil {
			last.Testbed.Close()
		}
	}()
	pass := func(t *simTotals, start time.Time) {
		for i, p := range seq {
			if last != nil {
				last.Testbed.Close()
			}
			t0 := time.Now()
			s, c, err := t.playOnce(p, nil)
			last = s
			ok := err == nil && c.sameRun(ref[i])
			t.samples = append(t.samples, sample{end: time.Since(start), lat: time.Since(t0), ok: ok, pkts: c.forwarded})
			o := opOK
			if !ok {
				o = opFailed
				if t.firstDivergent == "" {
					t.firstDivergent = fmt.Sprintf("%v: %v %+v vs reference %+v", p, err, c, ref[i])
				}
			}
			rep.acct.add(i, o)
		}
	}

	start := time.Now()
	if !traced {
		// Latency and rates are medians over passes; allocation is over
		// the whole phase. A calibration slice follows every pass; moving
		// start past it keeps it off the measured clock.
		var t simTotals
		var cal calibration
		g0 := readGo()
		for time.Since(start) < measure {
			pass(&t, start)
			c0 := time.Now()
			cal.slice()
			start = start.Add(time.Since(c0))
		}
		g := readGo().sub(g0).sub(cal.spent)
		b, n := medianOfBlocks(t.samples, len(seq))
		setupCal.scale(rep, "set-up", map[string]float64{"setup_s": median(setups)}, nil)
		cal.scale(rep, "measured phase",
			map[string]float64{"diag_p50_ms": b.p50, "diag_p99_ms": b.p99},
			map[string]float64{"sim_pkts_per_s": b.pktsPerS, "diag_per_s": b.opsPerS})
		rep.metrics["diag_virtual_ms"] = perOp(t.virtualMS, t.plays)
		rep.metrics["alloc_kb_per_diag"] = perOp(g.allocBytes/1024, t.plays)
		rep.metrics["alloc_b_per_pkt"] = perOp(g.allocBytes, int(t.counts.forwarded))
		rep.note("%s; medians over %d passes", describePercentiles("play latency", okLatencies(t.samples)), n)
		noteDivergence(rep, &t)
		t.samples = nil
		rep.metrics["heap_mb"] = liveHeapMB()
		return rep, nil
	}
	// Passes alternate between an untraced baseline and the traced totals,
	// so both see the same machine. The simulator layers are timed at the
	// BuildScenario/Run boundary either way; the baseline only supplies
	// the overhead estimate.
	var base, t simTotals
	var g goReading
	for i := 0; time.Since(start) < measure; i++ {
		if i%2 == 0 {
			pass(&base, start)
			continue
		}
		g0 := readGo()
		pass(&t, start)
		g = g.add(readGo().sub(g0))
	}
	basep50, _ := percentile(okLatencies(base.samples), 50)
	p50, _ := percentile(okLatencies(t.samples), 50)
	rep.note("wrapper overhead: traced minus untraced diag_p50_ms = %.4g ms (%.4g vs %.4g)", p50-basep50, p50, basep50)
	rep.note("traced passes: %d plays", t.plays)
	noteDivergence(rep, &base)
	noteDivergence(rep, &t)
	t.layerMetrics(rep.metrics)
	zeroDiagLayers(rep.metrics)
	goLayerMetrics(rep.metrics, g, t.plays)
	return rep, nil
}

func noteDivergence(rep *report, t *simTotals) {
	if t.firstDivergent != "" {
		rep.note("DIVERGED: %s", t.firstDivergent)
	}
}

func goLayerMetrics(m map[string]float64, g goReading, ops int) {
	m["go.alloc_bytes"] = perOp(g.allocBytes, ops)
	m["go.gc_cycles"] = perOp(g.gcCycles, ops)
	m["go.gc_pause_s"] = perOp(g.gcPauseS, ops)
}

// zeroDiagLayers reports the diagnosis-side layers as idle on a workload
// that runs no diagnosis.
func zeroDiagLayers(m map[string]float64) {
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
}
