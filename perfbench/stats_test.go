package main

import (
	"math"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 0, 1000)
	for i := 1000; i >= 1; i-- { // unsorted on purpose
		xs = append(xs, float64(i))
	}
	for _, tc := range []struct {
		p      float64
		want   float64
		beyond int
	}{
		{50, 500, 500},
		{99, 990, 10},
		{100, 1000, 0},
		{0, 1, 999},
	} {
		got, beyond := percentile(xs, tc.p)
		if got != tc.want || beyond != tc.beyond {
			t.Errorf("p%v = %v (%d beyond), want %v (%d beyond)", tc.p, got, beyond, tc.want, tc.beyond)
		}
	}
	if v, n := percentile(nil, 50); !math.IsNaN(v) || n != 0 {
		t.Errorf("percentile of no samples = %v, %d; want NaN, 0", v, n)
	}
	if v, _ := percentile([]float64{7}, 99); v != 7 {
		t.Errorf("p99 of one sample = %v, want 7", v)
	}
}

func TestDescribePercentilesPrintsSampleCount(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	got := describePercentiles("diag", xs)
	for _, want := range []string{"p50 2 ms", "p99 4 ms", "over 4 samples", "0 beyond p99"} {
		if !strings.Contains(got, want) {
			t.Errorf("%q lacks %q", got, want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestAccountingCountsEveryFailure(t *testing.T) {
	// Three inputs, each run twice: input 1 always hits the known defect,
	// input 2 fails unexpectedly once.
	var a accounting
	for _, op := range []struct {
		input int
		o     outcome
	}{{0, opOK}, {1, opKnownDefect}, {2, opOK}, {0, opOK}, {1, opKnownDefect}, {2, opFailed}} {
		a.add(op.input, op.o)
	}
	if a.attempted != 6 || a.failed() != 3 || a.known != 2 {
		t.Fatalf("accounting = %+v, failed %d", a, a.failed())
	}
	if got := a.failRatio(); got != 0.5 {
		t.Errorf("fail ratio = %v, want 0.5: the known defect counts", got)
	}
	if ran, bad := a.inputs(); ran != 3 || bad != 2 {
		t.Errorf("inputs: %d of %d failed, want 2 of 3", bad, ran)
	}
	if a.correct() {
		t.Error("an unexpected failure must make the run incorrect")
	}

	var b accounting
	b.add(0, opOK)
	b.add(1, opKnownDefect)
	if !b.correct() || b.failed() != 1 {
		t.Errorf("known defect only: correct %v, failed %d", b.correct(), b.failed())
	}
	b.merge(a)
	if b.attempted != 8 || b.failed() != 4 || b.correct() {
		t.Errorf("merged = %+v", b)
	}
	if ran, bad := b.inputs(); ran != 3 || bad != 2 {
		t.Errorf("merged inputs: %d of %d failed, want 2 of 3", bad, ran)
	}
	var none accounting
	if none.failRatio() != 0 {
		t.Error("fail ratio of nothing attempted must be 0")
	}
}

// TestInputCountsIgnoreRepeats: the result line's counts depend on which
// inputs ran and how they fared, not on how many repeats fit in the run.
func TestInputCountsIgnoreRepeats(t *testing.T) {
	run := func(repeats int) (int, int) {
		var a accounting
		for range repeats {
			for in := range 6 {
				o := opOK
				if in == 5 {
					o = opKnownDefect
				}
				a.add(in, o)
			}
		}
		return a.inputs()
	}
	r1, f1 := run(3)
	r2, f2 := run(1000)
	if r1 != 6 || f1 != 1 || r2 != r1 || f2 != f1 {
		t.Errorf("3 repeats: %d of %d failed; 1000 repeats: %d of %d", f1, r1, f2, r2)
	}
}
