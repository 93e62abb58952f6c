package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/cluster"
	"switchpointer/internal/simtime"
	"switchpointer/internal/statesync"
	"switchpointer/internal/store"
	"switchpointer/internal/trace"
)

// clients is the closed loop's width: each client sends its next
// diagnosis as soon as the previous one returns, with no think time. Two
// clients keep both CPUs of a small machine busy without queueing in
// admission (which admits four at once).
const clients = 2

// diagBlock is how many consecutive diagnoses make one block: latency
// percentiles and rates are medians over blocks, and 1000 diagnoses leave
// ten beyond each block's p99.
const diagBlock = 1000

// segment is how long the closed loop runs between calibration slices.
const segment = time.Second

// traceRounds is how many times a traced diag run alternates its
// untraced and traced halves.
const traceRounds = 4

// diagTimeout bounds one diagnosis; one that takes longer fails.
const diagTimeout = 30 * time.Second

// trioSpec is one loopback trio a diag workload serves, and the queries it
// submits to it.
type trioSpec struct {
	play
	// cold arms a 1-epoch hot window over an in-memory segment log before
	// the scenario plays, as `spd host -hot-epochs 1` does, so queries read
	// cold segments.
	cold    bool
	queries func(s *cluster.Scenario) ([]analyzer.Query, error)
}

func (sp trioSpec) label() string {
	if sp.cold {
		return sp.play.String() + "/cold"
	}
	return sp.play.String() + "/hot"
}

// target is one query of the workload, its trio and its reference verdict.
type target struct {
	label string
	env   cluster.QueryEnvelope
	ref   []byte
	// exposed marks the target the documented known defect applies to.
	exposed bool
	trio    *trio
}

type trio struct {
	lb *cluster.Loopback
	// url is where clients submit: the loopback's own analyzer, or the
	// traced run's admission over the timed Runner.
	url    string
	traced *http.Server
}

// fleet is one set-up of a diag workload: the served trios and targets.
type fleet struct {
	trios   []*trio
	targets []*target
	hc      *http.Client
}

func (f *fleet) close() {
	for _, t := range f.trios {
		if t.traced != nil {
			t.traced.Close() //nolint:errcheck // closing an idle server
		}
		t.lb.Close()
	}
	f.hc.CloseIdleConnections()
}

// armCold installs the 1-epoch retention window on every host agent.
func armCold(s *cluster.Scenario) error {
	for _, ag := range s.Testbed.HostAgents {
		seglog, err := statesync.NewSegmentLog("")
		if err != nil {
			return err
		}
		ag.EnableRetention(store.Retention{HotEpochs: 1, Alpha: s.Testbed.Opt.Alpha, Cold: seglog}, 0)
	}
	return nil
}

// setUp builds, plays and serves every trio, and computes each target's
// reference with the in-memory analyzer on a retention-free twin testbed.
func setUp(specs []trioSpec, exposed func(trioSpec) bool, sim *simTotals) (*fleet, error) {
	f := &fleet{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}}
	twins := map[play]*cluster.Scenario{}
	defer func() {
		for _, tw := range twins {
			tw.Testbed.Close()
		}
	}()
	for _, sp := range specs {
		if err := f.add(sp, exposed(sp), sim, twins); err != nil {
			f.close()
			return nil, fmt.Errorf("%s: %w", sp.label(), err)
		}
	}
	return f, nil
}

// add serves one trio and appends its targets, playing the twin for its
// scenario first if no earlier trio did.
func (f *fleet) add(sp trioSpec, exposed bool, sim *simTotals, twins map[play]*cluster.Scenario) error {
	var arm func(*cluster.Scenario) error
	if sp.cold {
		arm = armCold
	}
	s, _, err := sim.playOnce(sp.play, arm)
	if err != nil {
		return err
	}
	qs, err := sp.queries(s)
	if err != nil {
		return err
	}
	lb, err := cluster.NewLoopback(s.Testbed, cluster.AdmissionConfig{})
	if err != nil {
		return err
	}
	tr := &trio{lb: lb, url: lb.AnalyzerURL}
	f.trios = append(f.trios, tr)

	tw := twins[sp.play]
	if tw == nil {
		if tw, _, err = sim.playOnce(sp.play, nil); err != nil {
			return err
		}
		twins[sp.play] = tw
	}
	for i, q := range qs {
		rep, err := tw.Testbed.Analyzer.Run(context.Background(), q)
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		ref, err := referenceVerdict(rep)
		if err != nil {
			return err
		}
		env, err := cluster.Envelope(q)
		if err != nil {
			return err
		}
		f.targets = append(f.targets, &target{
			label: fmt.Sprintf("%s#%d", sp.label(), i), env: env, ref: ref, exposed: exposed, trio: tr,
		})
	}
	return nil
}

// instrument installs the traced run's wrappers on every trio before its
// first query: timed Directory and HostBackend on the analyzer, the
// counting transport under its pooled client, and an admission controller
// over a timed Runner served on a fresh listener.
func (f *fleet) instrument(l *layers) error {
	for _, tr := range f.trios {
		a := tr.lb.Analyzer
		rh, ok := a.HostBack.(*analyzer.RemoteHosts)
		if !ok {
			return fmt.Errorf("trio analyzer has host backend %T, want *analyzer.RemoteHosts", a.HostBack)
		}
		hc := rh.Client().HTTP
		inner := hc.Transport
		if inner == nil {
			inner = http.DefaultTransport
		}
		hc.Transport = countingTransport{inner: inner, l: l}
		a.Dir = timedDirectory{Directory: a.Dir, l: l}
		a.HostBack = timedHosts{HostBackend: a.HostBack, l: l}

		ad := cluster.NewAdmission(timedRunner{inner: a, l: l}, tr.lb.Admission.Config())
		ad.Flight = tr.lb.AnalyzerFlight
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		tr.traced = &http.Server{Handler: cluster.NewAnalyzerHandler(ad)}
		go tr.traced.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
		tr.url = "http://" + ln.Addr().String()
	}
	return nil
}

// diagTally is what the closed loop observed; each client fills its own
// and the loop merges them.
type diagTally struct {
	acct    accounting
	samples []sample
	allLatS float64 // every diagnosis, for the service-plane split
	perTgt  []int
	// Per target, from any returned report: whether one came back, its
	// TotalVirtual and its trace ID.
	seen     []bool
	virtual  []float64
	traceIDs []string
	// Deterministic per-diagnosis counters from the wire reports.
	coldSegments, coldSkipped, coldRounds  float64
	pointerRounds, queryRounds, hostsAsked float64
	firstFailure                           string
}

func newTally(n int) *diagTally {
	return &diagTally{perTgt: make([]int, n), seen: make([]bool, n), virtual: make([]float64, n), traceIDs: make([]string, n)}
}

func (t *diagTally) merge(o *diagTally) {
	t.acct.merge(o.acct)
	t.samples = append(t.samples, o.samples...)
	t.allLatS += o.allLatS
	for i := range t.perTgt {
		t.perTgt[i] += o.perTgt[i]
		if o.seen[i] {
			t.seen[i], t.virtual[i], t.traceIDs[i] = true, o.virtual[i], o.traceIDs[i]
		}
	}
	t.coldSegments += o.coldSegments
	t.coldSkipped += o.coldSkipped
	t.coldRounds += o.coldRounds
	t.pointerRounds += o.pointerRounds
	t.queryRounds += o.queryRounds
	t.hostsAsked += o.hostsAsked
	if t.firstFailure == "" {
		t.firstFailure = o.firstFailure
	}
}

// loop runs the closed loop for d: clients goroutines take targets round
// robin until the time is up, and every report is checked against its
// reference. With a calibration, the loop pauses after every segment for
// a calibration slice; the measured clock (sample ends, d and the elapsed
// time returned) leaves the slices out.
func (f *fleet) loop(d time.Duration, cal *calibration) (*diagTally, float64) {
	var next atomic.Int64
	tallies := make([]*diagTally, clients)
	for c := range tallies {
		tallies[c] = newTally(len(f.targets))
	}
	start := time.Now()
	var paused time.Duration
	measured := func() time.Duration { return time.Since(start) - paused }
	for seg := segment; ; seg += segment {
		segEnd := min(seg, d)
		if cal == nil {
			segEnd = d
		}
		f.run(tallies, &next, func() bool { return measured() < segEnd }, measured)
		if segEnd >= d {
			break
		}
		c0 := time.Now()
		cal.slice()
		paused += time.Since(c0)
	}
	elapsed := measured().Seconds()
	all := newTally(len(f.targets))
	for _, t := range tallies {
		all.merge(t)
	}
	sort.Slice(all.samples, func(i, j int) bool { return all.samples[i].end < all.samples[j].end })
	return all, elapsed
}

// run drives one stretch of the closed loop, one goroutine per client,
// while more() holds; now is the measured clock sample ends are read on.
func (f *fleet) run(tallies []*diagTally, next *atomic.Int64, more func() bool, now func() time.Duration) {
	var wg sync.WaitGroup
	for _, t := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for more() {
				i := int(next.Add(1)-1) % len(f.targets)
				tg := f.targets[i]
				cl := cluster.Client{BaseURL: tg.trio.url, HTTP: f.hc}
				ctx, cancel := context.WithTimeout(context.Background(), diagTimeout)
				t0 := time.Now()
				rep, err := cl.Diagnose(ctx, tg.env)
				lat := time.Since(t0)
				cancel()
				o, why := check(tg.ref, tg.exposed, rep, err)
				t.acct.add(i, o)
				t.perTgt[i]++
				t.allLatS += lat.Seconds()
				t.samples = append(t.samples, sample{end: now(), lat: lat, ok: o == opOK})
				if o == opFailed && t.firstFailure == "" {
					t.firstFailure = tg.label + ": " + why
				}
				if rep != nil {
					t.seen[i] = true
					t.virtual[i] = float64(rep.TotalVirtual) / float64(simtime.Millisecond)
					t.traceIDs[i] = rep.TraceID
					t.coldSegments += float64(rep.ColdSegments)
					t.coldSkipped += float64(rep.ColdSkippedByIndex)
					t.coldRounds += float64(rep.ColdRounds)
					t.pointerRounds += float64(rep.PointerRounds)
					t.queryRounds += float64(rep.QueryRounds)
					t.hostsAsked += float64(rep.HostsContacted)
				}
			}
		}()
	}
	wg.Wait()
}

// spansPerDiag counts the spans the trio's flight recorders hold for each
// target's trace, weighted by how often each target ran.
func (f *fleet) spansPerDiag(t *diagTally) float64 {
	spans, diags := 0, 0
	for i, tg := range f.targets {
		id := t.traceIDs[i]
		if id == "" {
			continue
		}
		n := 0
		lb := tg.trio.lb
		for _, rec := range []*trace.FlightRecorder{lb.HostFlight, lb.SwitchFlight, lb.AnalyzerFlight} {
			if tr, ok := rec.Get(id); ok {
				n += len(tr.Spans)
			}
		}
		spans += n * t.perTgt[i]
		diags += t.perTgt[i]
	}
	return perOp(float64(spans), diags)
}

// virtualMS is the mean TotalVirtual over targets: each target's virtual
// debugging time is deterministic, so the mean does not depend on how
// often the closed loop reached each one.
func (t *diagTally) virtualMS() float64 {
	sum, n := 0.0, 0
	for i, ok := range t.seen {
		if ok {
			sum += t.virtual[i]
			n++
		}
	}
	return perOp(sum, n)
}

// runDiag sets up, measures and reports either diag workload.
func runDiag(name string, specs []trioSpec, exposed func(trioSpec) bool, measure time.Duration, traced bool) (*report, error) {
	rep := &report{metrics: map[string]float64{}}
	var setups, pktRates, bPerPkt []float64
	var sim simTotals
	var setupCal calibration
	setupCal.slice()
	var fleets []*fleet
	defer func() {
		for _, f := range fleets {
			f.close()
		}
	}()
	for r := 0; r < diagSetups; r++ {
		var st simTotals
		start := time.Now()
		f, err := setUp(specs, exposed, &st)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		setupCal.slice()
		pktRates = append(pktRates, float64(st.counts.forwarded)/st.wallS())
		bPerPkt = append(bPerPkt, perOp(st.allocB, int(st.counts.forwarded)))
		sim.merge(&st)
		// Keep the last set-up for the measured phase; the traced run also
		// keeps the one before, so its untraced half never sees a wrapper.
		if r < diagSetups-1 && !(traced && r == diagSetups-2) {
			f.close()
			continue
		}
		fleets = append(fleets, f)
	}
	f := fleets[len(fleets)-1]
	labels := make([]string, len(f.targets))
	for i, tg := range f.targets {
		labels[i] = tg.label
	}
	rep.note("%s: %d targets, %d closed-loop clients: %v", name, len(f.targets), clients, labels)
	rep.metrics["alloc_b_per_pkt"] = median(bPerPkt)

	if !traced {
		var cal calibration
		g0 := readGo()
		t, elapsed := f.loop(measure, &cal)
		g := readGo().sub(g0).sub(cal.spent)
		rep.acct = t.acct
		b, n := medianOfBlocks(t.samples, diagBlock)
		setupCal.scale(rep, "set-up", map[string]float64{"setup_s": median(setups)}, map[string]float64{"sim_pkts_per_s": median(pktRates)})
		cal.scale(rep, "measured phase", map[string]float64{"diag_p50_ms": b.p50, "diag_p99_ms": b.p99}, map[string]float64{"diag_per_s": b.opsPerS})
		rep.metrics["diag_virtual_ms"] = t.virtualMS()
		rep.metrics["alloc_kb_per_diag"] = perOp(g.allocBytes/1024, t.acct.attempted)
		rep.note("%s; medians over %d blocks of %d in %.3f s", describePercentiles("correct diagnoses", okLatencies(t.samples)), n, diagBlock, elapsed)
		noteFailures(rep, t)
		// The samples grow with throughput; drop them so heap_mb holds
		// only the program's state.
		t.samples = nil
		rep.metrics["heap_mb"] = liveHeapMB()
		return rep, nil
	}

	rep.metrics["setup_s"] = median(setups)
	rep.metrics["sim_pkts_per_s"] = median(pktRates)
	var l layers
	if err := f.instrument(&l); err != nil {
		return nil, err
	}
	// The halves alternate so both see the same machine.
	base, t := newTally(len(f.targets)), newTally(len(f.targets))
	var g goReading
	var elapsed float64
	for range traceRounds {
		b, _ := fleets[0].loop(measure/(2*traceRounds), nil)
		base.merge(b)
		g0 := readGo()
		x, e := f.loop(measure/(2*traceRounds), nil)
		g = g.add(readGo().sub(g0))
		t.merge(x)
		elapsed += e
	}
	rep.acct = base.acct
	rep.acct.merge(t.acct)
	basep50, _ := percentile(okLatencies(base.samples), 50)
	p50, _ := percentile(okLatencies(t.samples), 50)
	rep.note("wrapper overhead: traced minus untraced diag_p50_ms = %.4g ms (%.4g vs %.4g)", p50-basep50, p50, basep50)
	rep.note("traced phase: %d diagnoses in %.3f s", t.acct.attempted, elapsed)
	noteFailures(rep, base)
	noteFailures(rep, t)

	diags := t.acct.attempted
	sim.layerMetrics(rep.metrics)
	l.metrics(rep.metrics, diags, perOp(t.allLatS, diags))
	rep.metrics["analyzer.pointer_rounds"] = perOp(t.pointerRounds, diags)
	rep.metrics["analyzer.query_rounds"] = perOp(t.queryRounds, diags)
	rep.metrics["analyzer.hosts_contacted"] = perOp(t.hostsAsked, diags)
	rep.metrics["statesync.cold_segments"] = perOp(t.coldSegments, diags)
	rep.metrics["statesync.cold_skipped"] = perOp(t.coldSkipped, diags)
	rep.metrics["statesync.cold_rounds"] = perOp(t.coldRounds, diags)
	rep.metrics["trace.spans_per_diag"] = f.spansPerDiag(t)
	goLayerMetrics(rep.metrics, g, diags)
	return rep, nil
}

func noteFailures(rep *report, t *diagTally) {
	if t.acct.known > 0 {
		rep.note("known defect: %d of %d diagnoses (cold cascade reports priority-contention with 1 culprit; hostagent LookupRecord/QueryPriority read only the hot store)", t.acct.known, t.acct.attempted)
	}
	if t.firstFailure != "" {
		rep.note("FAILED: %d unexpected failures; first: %s", t.acct.unexpected, t.firstFailure)
	}
}

// diagAlertsQuery is the one query an alert-driven scenario is built to
// answer.
func diagAlertsQuery(s *cluster.Scenario) ([]analyzer.Query, error) {
	q, err := s.Query()
	return []analyzer.Query{q}, err
}

// coldCascade marks the target the known defect applies to (see
// knownDefect).
func coldCascade(sp trioSpec) bool { return sp.name == "cascade" && sp.cold }

// runDiagAlerts: redlights, priority (m from the seed) and cascade, each
// served hot and cold.
func runDiagAlerts(seed uint64, measure time.Duration, traced bool) (*report, error) {
	hotM, coldM := alertsM(seed)
	var specs []trioSpec
	for _, p := range []play{{name: "redlights"}, {name: "priority"}, {name: "cascade"}} {
		for _, cold := range []bool{false, true} {
			if p.name == "priority" {
				p.m = hotM
				if cold {
					p.m = coldM
				}
			}
			specs = append(specs, trioSpec{play: p, cold: cold, queries: diagAlertsQuery})
		}
	}
	return runDiag("diag-alerts", specs, coldCascade, measure, traced)
}

// alertsM draws diag-alerts' priority burst widths, hot and cold, around
// the scenario default of 8. Each unit of m adds two hosts and moves every
// figure by 4-7 %, so the seed only decides which of the two priority
// trios gets m=8 and which m=9: the mix, and with it the figures, stay the
// same for every seed.
func alertsM(seed uint64) (hot, cold int) {
	hot = 8 + rand.New(rand.NewPCG(seed, 0xa1e7)).IntN(2)
	return hot, 17 - hot
}

// fanoutDraws is what the seed chooses for diag-fanout: the imbalance
// windows' first epochs, and each top-k query's K and mode. Three windows
// open before the small flows end and find the separation; one opens
// after they end, sees only the large flows and is inconclusive. K is
// stratified over 10-100.
type fanoutDraws struct {
	los   []simtime.Epoch
	ks    []int
	modes []analyzer.TopKMode
}

func drawFanout(seed uint64) fanoutDraws {
	rng := rand.New(rand.NewPCG(seed, 0xfa2007))
	const perTrio = 4
	var d fanoutDraws
	for i := range perTrio - 1 {
		d.los = append(d.los, simtime.Epoch(-70+24*i+rng.IntN(24)))
	}
	d.los = append(d.los, simtime.Epoch(10+rng.IntN(9)))
	for i := range perTrio {
		d.ks = append(d.ks, 10+23*i+rng.IntN(23))
		mode := analyzer.ModeSwitchPointer
		if rng.IntN(2) == 1 {
			mode = analyzer.ModePathDump
		}
		d.modes = append(d.modes, mode)
	}
	return d
}

// runDiagFanout: loadimbalance n=96 and topk n=96, hot, with the seed's
// windows, K values and modes.
func runDiagFanout(seed uint64, measure time.Duration, traced bool) (*report, error) {
	d := drawFanout(seed)
	imbalance := func(s *cluster.Scenario) ([]analyzer.Query, error) {
		q, err := s.Query()
		if err != nil {
			return nil, err
		}
		base := q.(analyzer.ImbalanceQuery)
		var qs []analyzer.Query
		for _, lo := range d.los {
			v := base
			v.Window.Lo = lo
			qs = append(qs, v)
		}
		return qs, nil
	}
	topk := func(s *cluster.Scenario) ([]analyzer.Query, error) {
		q, err := s.Query()
		if err != nil {
			return nil, err
		}
		base := q.(analyzer.TopKQuery)
		var qs []analyzer.Query
		for i := range d.ks {
			v := base
			v.K, v.Mode = d.ks[i], d.modes[i]
			qs = append(qs, v)
		}
		return qs, nil
	}
	specs := []trioSpec{
		{play: play{name: "loadimbalance", n: 96}, queries: imbalance},
		{play: play{name: "topk", n: 96}, queries: topk},
	}
	none := func(trioSpec) bool { return false }
	return runDiag("diag-fanout", specs, none, measure, traced)
}
