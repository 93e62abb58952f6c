package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"switchpointer/internal/metrics"
	"switchpointer/internal/rpc"
	"switchpointer/internal/statesync"
	"switchpointer/internal/trace"
)

// DiagnoseResponse is the body POST /diagnose answers with. A fully
// successful query carries only Report; a cancelled/deadline-cut query that
// still produced a partial report carries both (Error explains the cut);
// admission failures carry only Error (with a non-200 status).
type DiagnoseResponse struct {
	Report *WireReport `json:"report,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// NewAnalyzerHandler exposes the analyzer service plane over HTTP:
//
//	POST /diagnose — QueryEnvelope in, DiagnoseResponse out. Admission
//	                 failures map to status codes: queue full → 429,
//	                 queue wait expired → 503, malformed query → 400.
//	GET  /stats    — AdmissionStats counters.
//	GET  /metrics  — Prometheus text over an AnalyzerRegistry (admission
//	                 occupancy plus per-query-kind diagnosis families).
//	GET  /healthz  — statesync.Health JSON. The analyzer holds no telemetry
//	and needs no bootstrap, so it reports state "live" with
//	zero resident/evicted counts.
//	GET  /traces   — the flight recorder's trace index; /traces/<id> one
//	                 merged trace (only when a recorder is attached).
//
// Handlers are safe for concurrent requests; concurrency across diagnoses
// is exactly what the admission controller bounds.
func NewAnalyzerHandler(ad *Admission) http.Handler {
	return NewAnalyzerHandlerWith(ad, AnalyzerRegistry(ad), ad.Flight)
}

// NewAnalyzerHandlerWith is NewAnalyzerHandler with a caller-supplied metric
// registry (built by AnalyzerRegistry, possibly extended with process-level
// families) and flight recorder (nil disables the /traces endpoints; when
// non-nil it should be the same recorder as ad.Flight so served traces
// include the admission spans).
func NewAnalyzerHandlerWith(ad *Admission, reg *metrics.Registry, fr *trace.FlightRecorder) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/diagnose", func(w http.ResponseWriter, r *http.Request) {
		body, ok := rpc.ReadBody(w, r, maxEnvelopeBody)
		if !ok {
			return
		}
		var env QueryEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		q, err := env.Query()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ctx := r.Context()
		if env.TraceID != "" {
			// The client pinned a trace ID: install a recorder under that ID
			// so the admission controller adopts it instead of deriving one.
			ctx = trace.NewContext(ctx, trace.NewRecorder(env.TraceID, "analyzer", q.Name()))
		}
		rep, err := ad.Run(ctx, q)
		switch {
		case errors.Is(err, ErrRejected):
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		case errors.Is(err, ErrExpired):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		case err != nil && rep == nil:
			// Validation or queue-side cancellation: no report to return.
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := DiagnoseResponse{Report: WireFromReport(rep)}
		if err != nil {
			resp.Error = err.Error() // partial report: cost incurred so far
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, ad.Stats())
	})
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/healthz", statesync.HealthzHandler(nil, nil))
	if fr != nil {
		mux.Handle("/traces", http.StripPrefix("/traces", fr.Handler()))
		mux.Handle("/traces/", http.StripPrefix("/traces", fr.Handler()))
	}
	return mux
}

// maxEnvelopeBody bounds a /diagnose request; a larger one is refused
// with 413. maxReportBody bounds the report a Client reads back.
const (
	maxEnvelopeBody = 1 << 20
	maxReportBody   = 8 << 20
)

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Client submits queries to a running spd analyzer service.
type Client struct {
	// BaseURL is the analyzer service root, e.g. http://127.0.0.1:7643.
	BaseURL string
	// HTTP is the client to use (http.DefaultClient when nil).
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Diagnose submits an envelope and returns the wire report. A partial
// report (server-side cancellation) is returned together with an error
// describing the cut; admission failures return nil and a typed-ish error
// carrying the server's explanation.
func (c *Client) Diagnose(ctx context.Context, env QueryEnvelope) (*WireReport, error) {
	body, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("cluster: marshal envelope: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/diagnose", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	httpResp, err := c.http().Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: post /diagnose: %w", err)
	}
	defer httpResp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(httpResp.Body, maxReportBody+1))
	if err != nil {
		return nil, fmt.Errorf("cluster: read /diagnose: %w", err)
	}
	if len(raw) > maxReportBody {
		return nil, fmt.Errorf("cluster: /diagnose response exceeds limit of %d bytes", maxReportBody)
	}
	if httpResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: /diagnose status %d: %s", httpResp.StatusCode, bytes.TrimSpace(raw))
	}
	var resp DiagnoseResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, err
	}
	if resp.Error != "" {
		return resp.Report, fmt.Errorf("cluster: remote query cut short: %s", resp.Error)
	}
	return resp.Report, nil
}

// Stats fetches the admission counters.
func (c *Client) Stats(ctx context.Context) (AdmissionStats, error) {
	var stats AdmissionStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/stats", nil)
	if err != nil {
		return stats, err
	}
	httpResp, err := c.http().Do(req)
	if err != nil {
		return stats, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		return stats, fmt.Errorf("cluster: /stats status %d", httpResp.StatusCode)
	}
	return stats, json.NewDecoder(httpResp.Body).Decode(&stats)
}

// WaitReady polls url (a /healthz endpoint) until the daemon behind it is
// ready or the timeout elapses — the readiness gate daemons and scripts use
// before pointing clients at a freshly started cluster. Ready means an HTTP
// 200 whose statesync.Health body reports state "live": a bootstrapping
// daemon answers 200 with state "syncing" while it absorbs its peer's
// snapshot, and WaitReady keeps polling until the bootstrap lands. A 200
// with a non-JSON body (a plain health endpoint) counts as live.
func WaitReady(ctx context.Context, url string, timeout time.Duration) error {
	//splint:wallclock readiness polling races a live daemon, not the simulation
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	var lastErr error
	//splint:wallclock readiness polling races a live daemon, not the simulation
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			body, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			switch {
			case rerr != nil:
				lastErr = rerr
			case resp.StatusCode != http.StatusOK:
				lastErr = fmt.Errorf("status %d", resp.StatusCode)
			default:
				var h statesync.Health
				if jerr := json.Unmarshal(body, &h); jerr == nil && h.State != "" && h.State != statesync.StateLive.String() {
					lastErr = fmt.Errorf("state %q", h.State)
				} else {
					return nil
				}
			}
		} else {
			lastErr = err
		}
		//splint:wallclock readiness polling races a live daemon, not the simulation
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("cluster: %s not ready after %v: %v", url, timeout, lastErr)
}
