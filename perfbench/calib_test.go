package main

import (
	"math"
	"testing"
)

func TestCalibrationScalesToReference(t *testing.T) {
	// A machine twice as slow as the reference for half the units and at
	// reference speed for the rest: mean 1.5x the reference unit.
	c := calibration{unitsMS: []float64{calRefMS, 2 * calRefMS, calRefMS, 2 * calRefMS}}
	if got := c.unitMS(); math.Abs(got-1.5*calRefMS) > 1e-12 {
		t.Fatalf("unit = %v ms, want the mean %v", got, 1.5*calRefMS)
	}
	rep := &report{metrics: map[string]float64{}}
	c.scale(rep, "measured phase", map[string]float64{"diag_p50_ms": 3}, map[string]float64{"diag_per_s": 100})
	if got := rep.metrics["diag_p50_ms"]; math.Abs(got-2) > 1e-12 {
		t.Errorf("scaled time = %v, want 3 / 1.5 = 2", got)
	}
	if got := rep.metrics["diag_per_s"]; math.Abs(got-150) > 1e-9 {
		t.Errorf("scaled rate = %v, want 100 * 1.5 = 150", got)
	}
	if len(rep.notes) != 3 {
		t.Errorf("want the two measured figures and the unit noted, got %q", rep.notes)
	}
}

func TestCalibrationSliceIsSteadyWork(t *testing.T) {
	var a, b calibration
	a.slice()
	b.slice()
	if len(a.unitsMS) != calSliceUnits || a.sum != b.sum || a.sum == 0 {
		t.Fatalf("two slices: %d units, checksums %d and %d", len(a.unitsMS), a.sum, b.sum)
	}
	if a.spent.allocBytes <= 0 {
		t.Error("a slice's allocations must be recorded so the measured phase can leave them out")
	}
}
