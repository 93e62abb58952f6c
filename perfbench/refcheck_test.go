package main

import (
	"context"
	"errors"
	"testing"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/cluster"
	"switchpointer/internal/netsim"
)

func culprit(port uint16) analyzer.Culprit {
	return analyzer.Culprit{Flow: netsim.FlowKey{SrcPort: port}, Bytes: 100, Switch: 3}
}

func TestReferenceComparison(t *testing.T) {
	refReport := &analyzer.Report{
		Kind: analyzer.KindCascade, Conclusion: "chain",
		Culprits: []analyzer.Culprit{culprit(1), culprit(2)},
		Cascade:  []netsim.FlowKey{{SrcPort: 9}, {SrcPort: 1}},
		Links:    []analyzer.LinkDistribution{}, // empty, not nil
	}
	ref, err := referenceVerdict(refReport)
	if err != nil {
		t.Fatal(err)
	}
	same := cluster.WireFromReport(refReport)
	same.Links = nil          // the wire drops empty lists
	same.TotalVirtual = 12345 // cost is not part of the verdict
	same.HostsContacted = 7

	wrongKind := *same
	wrongKind.Kind = analyzer.KindRedLights
	extraCulprit := *same
	extraCulprit.Culprits = append([]analyzer.Culprit{culprit(5)}, same.Culprits...)
	boundary := *same
	boundary.Boundary = 1
	defect := *same
	defect.Kind, defect.Culprits, defect.Cascade = analyzer.KindPriorityContention, []analyzer.Culprit{culprit(1)}, nil

	for _, tc := range []struct {
		name    string
		got     *cluster.WireReport
		err     error
		exposed bool
		want    outcome
	}{
		{"equal", same, nil, false, opOK},
		{"equal-exposed", same, nil, true, opOK},
		{"error", same, errors.New("cluster: /diagnose status 429"), false, opFailed},
		{"partial", same, errors.New("cut short"), true, opFailed},
		{"no-report", nil, nil, false, opFailed},
		{"wrong-kind", &wrongKind, nil, false, opFailed},
		{"extra-culprit", &extraCulprit, nil, false, opFailed},
		{"boundary", &boundary, nil, false, opFailed},
		{"known-defect", &defect, nil, true, opKnownDefect},
		{"defect-signature-unexposed", &defect, nil, false, opFailed},
		{"other-wrong-answer-exposed", &wrongKind, nil, true, opFailed},
	} {
		if got, why := check(ref, tc.exposed, tc.got, tc.err); got != tc.want {
			t.Errorf("%s: outcome %v (%s), want %v", tc.name, got, why, tc.want)
		}
	}
}

// TestColdCascadeShowsKnownDefect pins the defect the diag-alerts workload
// counts as failures: with a 1-epoch hot window the cascade diagnosis
// loses its second culprit, in memory as over the wire. When the program
// is fixed this test fails and the exposed flag should go.
func TestColdCascadeShowsKnownDefect(t *testing.T) {
	var sim simTotals
	twin, _, err := sim.playOnce(play{name: "cascade"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, _, err := sim.playOnce(play{name: "cascade"}, armCold)
	if err != nil {
		t.Fatal(err)
	}
	q, err := cold.Query()
	if err != nil {
		t.Fatal(err)
	}
	refRep, err := twin.Testbed.Analyzer.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceVerdict(refRep)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := twin.Testbed.Analyzer.Run(context.Background(), q)
	if got, why := check(ref, false, cluster.WireFromReport(hot), err); got != opOK {
		t.Fatalf("retention-free rerun differs from its reference: %s", why)
	}
	coldRep, err := cold.Testbed.Analyzer.Run(context.Background(), q)
	got, why := check(ref, true, cluster.WireFromReport(coldRep), err)
	if got != opKnownDefect {
		t.Fatalf("cold cascade outcome %v (%s), want the known defect", got, why)
	}
	if sim.plays != 2 || sim.counts.forwarded == 0 {
		t.Errorf("sim totals = %+v", sim)
	}
}
