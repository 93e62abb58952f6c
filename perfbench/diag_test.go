package main

import (
	"testing"
	"time"
)

// TestTracedLoopAccountsEveryDiagnosis runs the closed loop briefly over a
// small fleet with the wrappers installed (run it with -race): every
// diagnosis is checked, the cold cascade shows as the known defect and
// nothing else, and the wrappers see every layer.
func TestTracedLoopAccountsEveryDiagnosis(t *testing.T) {
	alert := diagAlertsQuery
	specs := []trioSpec{
		{play: play{name: "redlights"}, queries: alert},
		{play: play{name: "redlights"}, cold: true, queries: alert},
		{play: play{name: "cascade"}, cold: true, queries: alert},
	}
	var sim simTotals
	f, err := setUp(specs, coldCascade, &sim)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	if sim.plays != 5 { // three served, two twins
		t.Errorf("set-up played %d scenarios, want 5", sim.plays)
	}
	var l layers
	if err := f.instrument(&l); err != nil {
		t.Fatal(err)
	}
	tally, _ := f.loop(300*time.Millisecond, nil)
	a := tally.acct
	if a.attempted < len(specs) || a.unexpected != 0 || a.known == 0 {
		t.Fatalf("accounting %+v: first failure %q", a, tally.firstFailure)
	}
	if got := a.attempted - a.failed(); got != len(okLatencies(tally.samples)) {
		t.Errorf("%d correct diagnoses but %d latency samples", got, len(okLatencies(tally.samples)))
	}
	m := map[string]float64{}
	l.metrics(m, a.attempted, tally.allLatS/float64(a.attempted))
	for _, name := range []string{"analyzer.run_s", "analyzer.dir_calls", "analyzer.host_rounds", "rpc.requests", "rpc.resp_bytes", "rpc.client_s"} {
		if m[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name])
		}
	}
	if got := f.spansPerDiag(tally); got <= 0 {
		t.Errorf("spans per diagnosis = %v", got)
	}
	if tally.coldSegments == 0 {
		t.Error("cold trios decoded no cold segments")
	}
}

// TestCalibratedLoopLeavesSlicesOffTheClock runs the closed loop over
// three segments (run it with -race): a calibration slice follows every
// segment but the last, and the measured clock leaves the slices out.
func TestCalibratedLoopLeavesSlicesOffTheClock(t *testing.T) {
	specs := []trioSpec{{play: play{name: "redlights"}, queries: diagAlertsQuery}}
	var sim simTotals
	f, err := setUp(specs, coldCascade, &sim)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	var cal calibration
	d := 2*segment + segment/2
	tally, elapsed := f.loop(d, &cal)
	if got := len(cal.unitsMS); got != 2*calSliceUnits {
		t.Errorf("%d calibration units, want two slices of %d", got, calSliceUnits)
	}
	if elapsed < d.Seconds() || elapsed > d.Seconds()+0.5 {
		t.Errorf("measured %.3f s for a %v loop", elapsed, d)
	}
	if last := tally.samples[len(tally.samples)-1].end; last.Seconds() > elapsed {
		t.Errorf("last sample ends at %v, after the measured %.3f s", last, elapsed)
	}
	if a := tally.acct; a.failed() != 0 || a.attempted != len(tally.samples) {
		t.Errorf("accounting %+v over %d samples: first failure %q", a, len(tally.samples), tally.firstFailure)
	}
}
