// Command perfbench is the repository benchmark. It drives the
// SwitchPointer reproduction only through its public constructors and
// calls — cluster.BuildScenario/Scenario.Run, cluster.NewLoopback plus
// Client.Diagnose, and the analyzer's Directory/HostBackend/cluster.Runner
// seams — and measures one seeded workload:
//
//	perfbench --workload sim-fabric|diag-alerts|diag-fanout --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints every end-to-end metric; with --trace 1 it
// alternates untraced stretches with stretches under the benchmark's own
// layer wrappers, and prints every per-layer metric plus the wrapper
// overhead.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// See README.md for what each workload and metric measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metricDef names one reported metric. The tables below must match
// BENCHMARK.json (checked by TestMetricTablesMatchBenchmarkJSON).
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"diag_p50_ms", "ms"},
	{"diag_p99_ms", "ms"},
	{"diag_per_s", "1/s"},
	{"diag_virtual_ms", "ms"},
	{"alloc_kb_per_diag", "KB"},
	{"sim_pkts_per_s", "1/s"},
	{"alloc_b_per_pkt", "B"},
	{"heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"fail_ratio", "ratio"},
	{"scenario.build_s", "s"},
	{"scenario.run_s", "s"},
	{"eventq.events", "count"},
	{"eventq.events_per_pkt", "ratio"},
	{"netsim.pkts_forwarded", "count"},
	{"netsim.port_drops", "count"},
	{"pointer.touches", "count"},
	{"pointer.push_bytes", "B"},
	{"hostagent.pkts_received", "count"},
	{"hostagent.decode_errors", "count"},
	{"hostagent.alerts", "count"},
	{"store.records", "count"},
	{"store.lock_contended_ratio", "ratio"},
	{"cluster.service_s", "s"},
	{"analyzer.run_s", "s"},
	{"analyzer.self_s", "s"},
	{"analyzer.dir_calls", "count"},
	{"analyzer.dir_s", "s"},
	{"analyzer.host_rounds", "count"},
	{"analyzer.hosts_per_round", "count"},
	{"analyzer.host_s", "s"},
	{"analyzer.pointer_rounds", "count"},
	{"analyzer.query_rounds", "count"},
	{"analyzer.hosts_contacted", "count"},
	{"rpc.requests", "count"},
	{"rpc.req_bytes", "B"},
	{"rpc.resp_bytes", "B"},
	{"rpc.conns_new", "count"},
	{"rpc.conn_reuse_ratio", "ratio"},
	{"rpc.server_wait_s", "s"},
	{"rpc.client_s", "s"},
	{"statesync.cold_segments", "count"},
	{"statesync.cold_skipped", "count"},
	{"statesync.cold_rounds", "count"},
	{"trace.spans_per_diag", "count"},
	{"go.alloc_bytes", "B"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_s", "s"},
}

// Each run sets its workload up several times and reports the median as
// setup_s, so one slow set-up on a shared machine does not move it. A
// sim-fabric set-up is a whole reference pass (about a second); a diag
// set-up is a fraction of that, so it repeats more often.
const (
	simSetups  = 3
	diagSetups = 7
)

// maxRunTime bounds a whole run: a hung diagnosis must fail the run, not
// stall it.
const maxRunTime = 170 * time.Second

// report is what one run measured.
type report struct {
	acct    accounting
	metrics map[string]float64
	// notes are human-readable lines printed ahead of the result.
	notes []string
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type workloadFunc func(seed uint64, measure time.Duration, traced bool) (*report, error)

var workloads = map[string]workloadFunc{
	"sim-fabric":  runSimFabric,
	"diag-alerts": runDiagAlerts,
	"diag-fanout": runDiagFanout,
}

func main() {
	name := flag.String("workload", "", "workload: sim-fabric, diag-alerts or diag-fanout")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload sim-fabric|diag-alerts|diag-fanout --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	watchdog := time.AfterFunc(maxRunTime, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", maxRunTime)
		os.Exit(3)
	})
	defer watchdog.Stop()

	rep, err := run(*seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
		rep.metrics["fail_ratio"] = rep.acct.failRatio()
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	ran, bad := rep.acct.inputs()
	fmt.Printf("fail_ratio %.6f ratio (%d of %d operations failed, %d as the known defect; %d of %d distinct inputs failed)\n",
		rep.acct.failRatio(), rep.acct.failed(), rep.acct.attempted, rep.acct.known, bad, ran)
	for _, d := range defs {
		if v, ok := rep.metrics[d.name]; ok {
			fmt.Printf("%-28s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	line, err := resultLine(rep, defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// resultLine renders the final JSON object over the given metric table; a
// metric the run did not produce is an error, never a silent zero.
func resultLine(rep *report, defs []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct: rep.acct.correct(),
		Metrics: make(map[string]value, len(defs)),
	}
	// attempted and failed count distinct inputs, so two runs of the same
	// program and seed report the same numbers however many repeats fit
	// in the measured time.
	out.Attempted, out.Failed = rep.acct.inputs()
	var missing []string
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out.Metrics[d.name] = value{v, d.unit}
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("metrics not measured: %v", missing)
	}
	if out.Attempted < 1 {
		return "", fmt.Errorf("no operation attempted")
	}
	raw, err := json.Marshal(out)
	return string(raw), err
}
