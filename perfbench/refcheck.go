package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/cluster"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
)

// verdict is the part of a report the reference check compares: what the
// diagnosis concluded, not what it cost.
type verdict struct {
	Kind       analyzer.Kind
	Conclusion string
	Culprits   []analyzer.Culprit
	Cascade    []netsim.FlowKey
	Links      []analyzer.LinkDistribution
	Flows      []hostagent.FlowBytes
	Separated  bool
	Boundary   uint64
}

func verdictOf(w *cluster.WireReport) ([]byte, error) {
	return json.Marshal(verdict{
		Kind: w.Kind, Conclusion: w.Conclusion, Culprits: w.Culprits, Cascade: w.Cascade,
		Links: w.Links, Flows: w.Flows, Separated: w.Separated, Boundary: w.Boundary,
	})
}

// referenceVerdict renders an in-memory report through the same JSON wire
// form a served report travels, so empty and absent lists compare equal.
func referenceVerdict(r *analyzer.Report) ([]byte, error) {
	raw, err := json.Marshal(cluster.WireFromReport(r))
	if err != nil {
		return nil, err
	}
	var w cluster.WireReport
	if err := json.Unmarshal(raw, &w); err != nil {
		return nil, err
	}
	return verdictOf(&w)
}

// knownDefect matches the one documented wrong answer: hostagent's
// LookupRecord and QueryPriority read only the hot store, so with a hot
// window of at most 3 epochs the cold cascade target reports
// priority-contention with one culprit instead of traffic-cascade with
// two. Only targets flagged as exposed to it may match.
func knownDefect(got *cluster.WireReport) bool {
	return got.Kind == analyzer.KindPriorityContention && len(got.Culprits) == 1
}

// check classifies one served diagnosis against its reference. Any error
// — a refusal, a transport failure, a report cut short — is a failure; so
// is any report whose verdict differs from the reference.
func check(ref []byte, exposed bool, got *cluster.WireReport, err error) (outcome, string) {
	if err != nil {
		return opFailed, err.Error()
	}
	if got == nil {
		return opFailed, "no report"
	}
	v, err := verdictOf(got)
	if err != nil {
		return opFailed, err.Error()
	}
	if bytes.Equal(v, ref) {
		return opOK, ""
	}
	if exposed && knownDefect(got) {
		return opKnownDefect, fmt.Sprintf("known defect: %s with %d culprit(s)", got.Kind, len(got.Culprits))
	}
	return opFailed, fmt.Sprintf("report differs from reference:\n  got %s\n  ref %s", v, ref)
}
