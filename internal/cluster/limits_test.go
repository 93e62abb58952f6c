package cluster

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestDiagnoseBodyLimits: POST /diagnose refuses an envelope over its
// limit with 413 instead of truncating it into a JSON syntax error, and
// Client.Diagnose names a report over its read limit as such instead of
// cutting it short into one.
func TestDiagnoseBodyLimits(t *testing.T) {
	srv := httptest.NewServer(NewAnalyzerHandler(NewAdmission(&stubRunner{}, AdmissionConfig{})))
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/diagnose", "application/json",
		bytes.NewReader(bytes.Repeat([]byte(" "), maxEnvelopeBody+1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize envelope status = %d, want 413", resp.StatusCode)
	}

	big := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(bytes.Repeat([]byte(" "), maxReportBody+1)) //nolint:errcheck
	}))
	defer big.Close()
	c := &Client{BaseURL: big.URL, HTTP: big.Client()}
	if _, err := c.Diagnose(context.Background(), QueryEnvelope{Kind: "topk"}); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversize report: %v, want a limit error", err)
	}
}
