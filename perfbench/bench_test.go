package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestMetricTablesMatchBenchmarkJSON keeps the metric and workload names
// the program prints in step with BENCHMARK.json at the repository root.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	defs := func(list []struct{ Name, Unit string }) []metricDef {
		var out []metricDef
		for _, m := range list {
			out = append(out, metricDef{m.Name, m.Unit})
		}
		return out
	}
	if got := defs(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end = %v, program prints %v", got, endToEnd)
	}
	if got := defs(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer = %v, program prints %v", got, perLayer)
	}
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads = %v, program runs %v", names, want)
	}
}

func TestResultLineRefusesMissingMetric(t *testing.T) {
	rep := &report{metrics: map[string]float64{"setup_s": 1}}
	rep.acct.add(0, opOK)
	if _, err := resultLine(rep, endToEnd); err == nil {
		t.Fatal("a run that did not measure every metric must not print a result")
	}
	for _, d := range endToEnd {
		rep.metrics[d.name] = 1
	}
	line, err := resultLine(rep, endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Attempted != 1 || out.Failed != 0 || len(out.Metrics) != len(endToEnd) {
		t.Errorf("result line = %s", line)
	}
}

func TestSimSequenceIsSeededAndStratified(t *testing.T) {
	a, b := simSequence(7), simSequence(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed must give the same sequence")
	}
	if reflect.DeepEqual(a, simSequence(8)) {
		t.Error("different seeds gave the same sequence")
	}
	for seed := uint64(0); seed < 50; seed++ {
		seq := simSequence(seed)
		if len(seq) != 20 || seq[len(seq)-1] != (play{name: "loadimbalance", n: 96}) {
			t.Fatalf("seed %d: %v", seed, seq)
		}
		count := map[string]int{}
		for _, p := range seq {
			count[p.name]++
			if p.name == "loadimbalance" && (p.n < 16 || p.n > 96) ||
				(p.name == "priority" || p.name == "microburst") && (p.m < 1 || p.m > 16) {
				t.Errorf("seed %d: %v out of range", seed, p)
			}
		}
		want := map[string]int{"loadimbalance": 8, "priority": 4, "microburst": 4, "cascade": 2, "redlights": 2}
		if !reflect.DeepEqual(count, want) {
			t.Errorf("seed %d: mix %v, want %v", seed, count, want)
		}
	}
}

// TestDiagDrawsFollowTheSeed runs the draws for a second seed and more:
// the same seed repeats, seeds differ, and every draw stays in range.
func TestDiagDrawsFollowTheSeed(t *testing.T) {
	h3, c3 := alertsM(3)
	if h, c := alertsM(3); !reflect.DeepEqual(drawFanout(3), drawFanout(3)) || h != h3 || c != c3 {
		t.Fatal("the same seed must give the same draws")
	}
	ms := map[int]bool{}
	distinct := map[string]bool{}
	for seed := uint64(0); seed < 50; seed++ {
		hot, cold := alertsM(seed)
		if hot+cold != 17 {
			t.Errorf("seed %d: priority m hot %d, cold %d; the mix must stay m=8 plus m=9", seed, hot, cold)
		}
		ms[hot] = true
		d := drawFanout(seed)
		distinct[fmt.Sprint(d)] = true
		if len(d.los) != 4 || len(d.ks) != 4 || len(d.modes) != 4 {
			t.Fatalf("seed %d: %+v", seed, d)
		}
		for i, lo := range d.los {
			if i < 3 && lo > 1 || i == 3 && (lo < 10 || lo > 18) {
				t.Errorf("seed %d: window %d opens at epoch %d", seed, i, lo)
			}
		}
		for i, k := range d.ks {
			if k < 10+23*i || k >= 10+23*(i+1) {
				t.Errorf("seed %d: K %d outside stratum %d", seed, k, i)
			}
		}
	}
	if !ms[8] || !ms[9] || len(ms) != 2 {
		t.Errorf("priority m over 50 seeds: %v, want 8 and 9", ms)
	}
	if len(distinct) < 40 {
		t.Errorf("only %d distinct fan-out draws over 50 seeds", len(distinct))
	}
}

func TestMedianOfBlocks(t *testing.T) {
	var samples []sample
	for i := 1; i <= 25; i++ {
		samples = append(samples, sample{end: secs(i), lat: ms(i), ok: i%5 != 0, pkts: 10})
	}
	b, n := medianOfBlocks(samples, 10)
	if n != 2 {
		t.Fatalf("%d blocks, want 2 (the 5-sample tail joins the second)", n)
	}
	// Block 1: samples 1..10, 8 correct in 10 s; block 2: 11..25, 12
	// correct in 15 s.
	if want := (0.8 + 0.8) / 2; b.opsPerS != want {
		t.Errorf("ops/s = %v, want %v", b.opsPerS, want)
	}
	if b.pktsPerS != 10 {
		t.Errorf("pkts/s = %v, want 10", b.pktsPerS)
	}
	if want := (4.0 + 17.0) / 2; b.p50 != want {
		t.Errorf("p50 = %v, want %v", b.p50, want)
	}
}

func secs(i int) time.Duration { return time.Duration(i) * time.Second }
func ms(i int) time.Duration   { return time.Duration(i) * time.Millisecond }
