package rpc

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"switchpointer/internal/bitset"
	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/mph"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/switchagent"
	"switchpointer/internal/trace"
	"switchpointer/internal/wire"
)

// This file is the real-network binding of the agent query interfaces over
// HTTP via net/http, replacing the paper's flask microframework: the host
// query rounds carry the binary round codec (roundcodec.go), every other
// endpoint JSON. Handlers must only be served while the simulation engine
// is idle (the simulated testbed is single-threaded); in deployments the
// agents would own their state behind these handlers directly.

// RoundRequest is one daemon-level query round (POST
// /rounds/{headers,topk,flowsizes} on a host daemon, as a binary round
// body): the hosts to ask, in order, plus the round's arguments — Queries
// for headers, Switch and K for topk, Switch for flowsizes. One request
// reaches every host the daemon serves, so a round costs one HTTP round
// trip per daemon, not per host.
type RoundRequest struct {
	Hosts   []netsim.IPv4
	Switch  netsim.NodeID
	K       int
	Queries []hostagent.HeadersQuery
}

// RoundResponse answers a RoundRequest, as a binary round body: Answers[i]
// is Hosts[i]'s reply — for headers one hostagent.HeadersAnswer per query
// in order — and nil for a host the daemon does not serve.
type RoundResponse[T any] struct {
	Answers []T
}

// PriorityRequest asks a host for a flow's recorded DSCP priority.
type PriorityRequest struct {
	Flow netsim.FlowKey `json:"flow"`
}

// PriorityResponse is the answer to a PriorityRequest.
type PriorityResponse struct {
	Priority uint8 `json:"priority"`
	Known    bool  `json:"known"`
}

// RecordRequest asks a host for one flow's full record (the cascade
// procedure's synthetic-alert source).
type RecordRequest struct {
	Flow netsim.FlowKey `json:"flow"`
}

// RecordResponse is the answer to a RecordRequest.
type RecordResponse struct {
	Record *flowrec.Record `json:"record,omitempty"`
	Known  bool            `json:"known"`
}

// PointersRequest asks a switch for its pointer union over an epoch range.
type PointersRequest struct {
	EpochLo simtime.Epoch `json:"epoch_lo"`
	EpochHi simtime.Epoch `json:"epoch_hi"`
}

// MPHRequest installs a freshly built minimal perfect hash on a switch —
// the wire form of the analyzer's §4.3 distribution responsibility.
type MPHRequest struct {
	TableB64 string `json:"table_b64"`
}

// SwitchSnapshotResponse is the switch half of a state-sync snapshot
// (GET /snapshot on a switch handler): the live pointer structure, the
// pushed control-store history, and the installed MPH, each in its own
// binary encoding. A bootstrapping daemon pulls one from its peer and
// applies it to a local agent of identical geometry so subsequent pointer
// pulls answer byte-identically to the source's.
type SwitchSnapshotResponse struct {
	PointerB64 string `json:"pointer_b64"`
	ControlB64 string `json:"control_b64"`
	MPHB64     string `json:"mph_b64,omitempty"`
}

// Apply restores the snapshot into a local switch agent: pointer structure,
// control store, and (when the snapshot carries one) the MPH.
func (sr *SwitchSnapshotResponse) Apply(a *switchagent.Agent) error {
	ptr, err := base64.StdEncoding.DecodeString(sr.PointerB64)
	if err != nil {
		return fmt.Errorf("rpc: switch snapshot: %w", err)
	}
	if err := a.RestorePointerSnapshot(ptr); err != nil {
		return err
	}
	ctrl, err := base64.StdEncoding.DecodeString(sr.ControlB64)
	if err != nil {
		return fmt.Errorf("rpc: switch snapshot: %w", err)
	}
	if err := a.RestoreControlStoreSnapshot(ctrl); err != nil {
		return err
	}
	if sr.MPHB64 != "" {
		raw, err := base64.StdEncoding.DecodeString(sr.MPHB64)
		if err != nil {
			return fmt.Errorf("rpc: switch snapshot: %w", err)
		}
		var table mph.Table
		if err := table.UnmarshalBinary(raw); err != nil {
			return err
		}
		a.InstallMPH(&table)
	}
	return nil
}

// PointersResponse carries the pointer bitmap and how it was satisfied.
type PointersResponse struct {
	HostsB64 string `json:"hosts_b64"`
	Level    int    `json:"level"`
	Slots    int    `json:"slots"`
	Covered  bool   `json:"covered"`
	Source   string `json:"source"`
	// Approx marks a sketch-backed answer: the bitmap is a candidate
	// superset of the touched hosts (never missing one). Omitted (false)
	// for exact backends, keeping the wire form identical to older peers.
	Approx bool `json:"approx,omitempty"`
}

// Decode unpacks the bitmap.
func (pr *PointersResponse) Decode() (*bitset.Set, error) {
	raw, err := base64.StdEncoding.DecodeString(pr.HostsB64)
	if err != nil {
		return nil, fmt.Errorf("rpc: pointer bitmap: %w", err)
	}
	var s bitset.Set
	if err := s.UnmarshalBinary(raw); err != nil {
		return nil, err
	}
	return &s, nil
}

// childSpan is the virtual-instant child span a traced request emits into
// the daemon's flight recorder: the span sits at the analyzer's virtual send
// time, parents under the phase ordinal the round will charge, and derives
// its ID from (parent, role, label, endpoint) so the same diagnosis yields
// the same tree on every execution path.
func childSpan(rc trace.RemoteContext, role, label, name string, attrs ...trace.Attr) trace.Span {
	return trace.Span{
		ID:     rc.Parent + "." + role + ":" + label + ":" + name,
		Parent: rc.Parent,
		Name:   name,
		Role:   role,
		Start:  rc.At,
		End:    rc.At,
		Attrs:  attrs,
	}
}

// remoteContext parses the request's trace context; ok is false when the
// request is untraced or the daemon records no spans.
func remoteContext(fr *trace.FlightRecorder, r *http.Request) (trace.RemoteContext, bool) {
	if fr == nil {
		return trace.RemoteContext{}, false
	}
	return trace.ParseRemote(r.Header.Get(trace.Header))
}

// recordChild records one childSpan when the request carries trace context.
func recordChild(fr *trace.FlightRecorder, role, label string, r *http.Request, name string, attrs ...trace.Attr) {
	if rc, ok := remoteContext(fr, r); ok {
		fr.Record(rc.TraceID, childSpan(rc, role, label, name, attrs...))
	}
}

// RoundsPath prefixes a host daemon's round endpoints: RoundsPath+"headers",
// +"topk" and +"flowsizes".
const RoundsPath = "/rounds/"

// HostPath is where a host daemon serves host ip's single-host routes
// (NewTracedHostHandler's /priority and /record, and the state-sync plane).
func HostPath(ip netsim.IPv4) string { return "/hosts/" + ip.String() }

// roundKind is one round endpoint, the single seam both sides of a round
// go through: name is its path under RoundsPath, ask answers one host from
// the decoded request, span names the host's child span, attrs derives
// that span's attributes from the host's answer, and appendAnswer /
// readAnswer are the answer's binary codec.
type roundKind[T any] struct {
	name         string
	span         string
	ask          func(ctx context.Context, ag *hostagent.Agent, req *RoundRequest) T
	attrs        func(T) []trace.Attr
	appendAnswer func([]byte, T) []byte
	readAnswer   func(*wire.Reader) T
}

var (
	headersKind = roundKind[[]hostagent.HeadersAnswer]{
		name: "headers",
		span: "headers-batch",
		ask: func(ctx context.Context, ag *hostagent.Agent, req *RoundRequest) []hostagent.HeadersAnswer {
			return ag.QueryHeadersMulti(ctx, req.Queries)
		},
		attrs: func(answers []hostagent.HeadersAnswer) []trace.Attr {
			records, coldSegments, coldReturned := 0, 0, 0
			for _, ans := range answers {
				records += len(ans.Records)
				coldSegments += ans.ColdSegments
				coldReturned += ans.ColdReturned
			}
			return []trace.Attr{
				{Key: "records", Value: strconv.Itoa(records)},
				{Key: "cold_segments", Value: strconv.Itoa(coldSegments)},
				{Key: "cold_returned", Value: strconv.Itoa(coldReturned)},
			}
		},
		appendAnswer: appendHeadersAnswers,
		readAnswer:   readHeadersAnswers,
	}
	topkKind = roundKind[[]hostagent.FlowBytes]{
		name: "topk",
		span: "topk",
		ask: func(ctx context.Context, ag *hostagent.Agent, req *RoundRequest) []hostagent.FlowBytes {
			return ag.QueryTopK(ctx, req.Switch, req.K)
		},
		attrs:        flowsAttrs[hostagent.FlowBytes],
		appendAnswer: appendFlowBytes,
		readAnswer:   readFlowBytes,
	}
	flowSizesKind = roundKind[[]hostagent.FlowSize]{
		name: "flowsizes",
		span: "flowsizes",
		ask: func(ctx context.Context, ag *hostagent.Agent, req *RoundRequest) []hostagent.FlowSize {
			return ag.QueryFlowSizes(ctx, req.Switch)
		},
		attrs:        flowsAttrs[hostagent.FlowSize],
		appendAnswer: appendFlowSizes,
		readAnswer:   readFlowSizes,
	}
)

// serve answers one round: every host the daemon serves, in request order,
// and nil for the rest. A traced request's context is parsed once and
// yields one child span per answered host, labelled by the host's IP, so a
// trace is the same however the analyzer batches hosts into requests.
func (k roundKind[T]) serve(agents map[netsim.IPv4]*hostagent.Agent, fr *trace.FlightRecorder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, ok := ReadBody(w, r, maxRequestBody)
		if !ok {
			return
		}
		req, err := decodeRoundRequest(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		rc, traced := remoteContext(fr, r)
		resp := RoundResponse[T]{Answers: make([]T, len(req.Hosts))}
		var spans []trace.Span
		for i, ip := range req.Hosts {
			ag, ok := agents[ip]
			if !ok {
				continue
			}
			resp.Answers[i] = k.ask(r.Context(), ag, &req)
			if traced {
				spans = append(spans, childSpan(rc, "host", ip.String(), k.span, k.attrs(resp.Answers[i])...))
			}
		}
		if traced {
			fr.Record(rc.TraceID, spans...)
		}
		out := k.appendResponse(make([]byte, 0, 512), resp)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(out)))
		w.Write(out) //nolint:errcheck // the client sees a short body
	}
}

// flowsAttrs is the span attribute set of the topk and flowsizes rounds.
func flowsAttrs[T any](flows []T) []trace.Attr {
	return []trace.Attr{{Key: "flows", Value: strconv.Itoa(len(flows))}}
}

// NewHostRoundHandler serves a host daemon's round endpoints over the given
// agents (keyed by host IP): POST RoundsPath+{headers,topk,flowsizes}, each
// a binary RoundRequest answered with a binary RoundResponse (the round
// codec, roundcodec.go). Traced requests record per-host child spans into
// fr (nil disables them).
func NewHostRoundHandler(agents map[netsim.IPv4]*hostagent.Agent, fr *trace.FlightRecorder) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(RoundsPath+headersKind.name, headersKind.serve(agents, fr))
	mux.HandleFunc(RoundsPath+topkKind.name, topkKind.serve(agents, fr))
	mux.HandleFunc(RoundsPath+flowSizesKind.name, flowSizesKind.serve(agents, fr))
	return mux
}

// NewHostHandler exposes one host agent's single-host probes over HTTP.
func NewHostHandler(a *hostagent.Agent) http.Handler {
	return NewTracedHostHandler(a, "", nil)
}

// NewTracedHostHandler is NewHostHandler with a flight recorder: requests
// carrying an X-SP-Trace header additionally emit a child span under the
// daemon's label (its host IP). Query rounds are served daemon-wide by
// NewHostRoundHandler.
func NewTracedHostHandler(a *hostagent.Agent, label string, fr *trace.FlightRecorder) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/priority", func(w http.ResponseWriter, r *http.Request) {
		var req PriorityRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		prio, known := a.QueryPriority(r.Context(), req.Flow)
		recordChild(fr, "host", label, r, "priority",
			trace.Attr{Key: "known", Value: fmt.Sprintf("%v", known)})
		writeJSON(w, PriorityResponse{Priority: prio, Known: known})
	})
	mux.HandleFunc("/record", func(w http.ResponseWriter, r *http.Request) {
		var req RecordRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		rec, known := a.LookupRecord(r.Context(), req.Flow)
		recordChild(fr, "host", label, r, "record",
			trace.Attr{Key: "known", Value: fmt.Sprintf("%v", known)})
		writeJSON(w, RecordResponse{Record: rec, Known: known})
	})
	return mux
}

// NewSwitchHandler exposes a switch agent's pointer pulls over HTTP.
// net/http serves requests concurrently but switchagent.Agent is not
// concurrency-safe (pulls rotate epochs and mutate accounting), so the
// handler serializes agent access — the server-side twin of the per-switch
// pull mutexes in analyzer.MemoryDirectory. Pulls against DIFFERENT
// switches (separate handlers) still proceed in parallel, which is what
// the batched round relies on.
func NewSwitchHandler(a *switchagent.Agent) http.Handler {
	return NewTracedSwitchHandler(a, "", nil)
}

// NewTracedSwitchHandler is NewSwitchHandler with a flight recorder:
// pointer pulls carrying an X-SP-Trace header additionally emit child spans
// (level, slot count, approx flag) under the daemon's label (its switch ID).
func NewTracedSwitchHandler(a *switchagent.Agent, label string, fr *trace.FlightRecorder) http.Handler {
	var mu sync.Mutex
	mux := http.NewServeMux()
	mux.HandleFunc("/pointers", func(w http.ResponseWriter, r *http.Request) {
		var req PointersRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		mu.Lock()
		res := a.PullPointers(simtime.EpochRange{Lo: req.EpochLo, Hi: req.EpochHi})
		mu.Unlock()
		raw, err := res.Hosts.MarshalBinary()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		recordChild(fr, "switch", label, r, "pointers",
			trace.Attr{Key: "level", Value: strconv.Itoa(res.Info.Level)},
			trace.Attr{Key: "slots", Value: strconv.Itoa(res.Info.Slots)},
			trace.Attr{Key: "covered", Value: fmt.Sprintf("%v", res.Info.Covered)},
			trace.Attr{Key: "source", Value: res.Source},
			trace.Attr{Key: "approx", Value: fmt.Sprintf("%v", !res.Exact)})
		writeJSON(w, PointersResponse{
			HostsB64: base64.StdEncoding.EncodeToString(raw),
			Level:    res.Info.Level,
			Slots:    res.Info.Slots,
			Covered:  res.Info.Covered,
			Source:   res.Source,
			Approx:   !res.Exact,
		})
	})
	mux.HandleFunc("/mph", func(w http.ResponseWriter, r *http.Request) {
		var req MPHRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		raw, err := base64.StdEncoding.DecodeString(req.TableB64)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var table mph.Table
		if err := table.UnmarshalBinary(raw); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		a.InstallMPH(&table)
		mu.Unlock()
		writeJSON(w, struct{}{})
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		mu.Lock()
		ptr, err := a.PointerSnapshot()
		var ctrl []byte
		if err == nil {
			ctrl, err = a.ControlStoreSnapshot()
		}
		var mphRaw []byte
		if err == nil && a.MPH() != nil {
			mphRaw, err = a.MPH().MarshalBinary()
		}
		mu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		resp := SwitchSnapshotResponse{
			PointerB64: base64.StdEncoding.EncodeToString(ptr),
			ControlB64: base64.StdEncoding.EncodeToString(ctrl),
		}
		if mphRaw != nil {
			resp.MPHB64 = base64.StdEncoding.EncodeToString(mphRaw)
		}
		writeJSON(w, resp)
	})
	return mux
}

// maxRequestBody bounds a request body; a larger one is refused with 413.
const maxRequestBody = 1 << 20

// ReadBody reads a POST body of at most limit bytes. It answers 405 to
// another method, 413 to a larger body (refused, never truncated; a
// declared length over the limit is refused unread) and 400 to a failed
// read, and then reports false.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return nil, false
	}
	body, err := readLimited(http.MaxBytesReader(w, r.Body, limit), r.ContentLength, limit)
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.Is(err, errTooLarge) || errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return nil, false
	}
	return body, true
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := ReadBody(w, r, maxRequestBody)
	if !ok {
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// HTTPClient is the analyzer-side client for the HTTP binding.
//
// Concurrency contract: an HTTPClient is goroutine-safe — all query methods
// may be called concurrently (http.Client and http.Transport are themselves
// concurrent-safe), which is what analyzer.RemoteHosts relies on to send a
// round to many host daemons at once. The flask deployment the paper measures
// opens one connection per server per query (§6.2's sequential bottleneck);
// NewPooledHTTPClient is the corresponding fix: a shared, keep-alive
// http.Transport whose idle pool spans query rounds, so repeat rounds skip
// connection initiation entirely — the real-network twin of the cost model's
// Pooled+Parallel accounting.
//
// Static-analysis contract: splint treats every HTTPClient method (except
// Close/CloseIdleConnections) as a network round. locklint therefore flags
// any call on one while a sync.Mutex/RWMutex is held — clone the state
// under the lock and send outside it — and ctxlint requires exported
// callers in the service-plane packages to thread a context.Context down
// into these methods rather than severing the chain with
// context.Background.
type HTTPClient struct {
	HTTP *http.Client

	// PerHostTimeout bounds each single request (connection + request +
	// response): one daemon's share of a query round — every host that
	// daemon serves — or one single-host probe or switch pull. Zero means
	// no bound; the round is then limited only by the caller's context. A
	// slow or dead daemon therefore cannot stall a whole round beyond it.
	PerHostTimeout time.Duration
}

// NewHTTPClient returns a client using the given http.Client (or the default
// client when nil).
func NewHTTPClient(c *http.Client) *HTTPClient {
	if c == nil {
		c = http.DefaultClient
	}
	return &HTTPClient{HTTP: c}
}

// NewPooledHTTPClient returns a client over a dedicated pooled
// http.Transport tuned for analyzer fan-out: generous idle-connection
// limits so a 96-server query round keeps every connection alive for the
// next round, and a default per-host timeout so one dead agent cannot hang
// a diagnosis.
func NewPooledHTTPClient() *HTTPClient {
	tr := &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 8,
		IdleConnTimeout:     90 * time.Second,
	}
	return &HTTPClient{
		HTTP:           &http.Client{Transport: tr},
		PerHostTimeout: 5 * time.Second,
	}
}

// CloseIdleConnections drops pooled keep-alive connections.
func (c *HTTPClient) CloseIdleConnections() { c.HTTP.CloseIdleConnections() }

// maxResponseBody bounds every response body the client reads; a larger
// one fails with an error naming the URL instead of being cut short.
const maxResponseBody = 64 << 20

// do sends one request (body nil for none) under the per-host timeout,
// carrying the caller's trace context, and returns the response body of a
// 200 answer.
func (c *HTTPClient) do(ctx context.Context, method, url, contentType string, body []byte) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.PerHostTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.PerHostTimeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	httpReq, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, fmt.Errorf("rpc: request %s: %w", url, err)
	}
	if contentType != "" {
		httpReq.Header.Set("Content-Type", contentType)
	}
	if rc, ok := trace.RemoteFromContext(ctx); ok {
		httpReq.Header.Set(trace.Header, rc.Encode())
	}
	httpResp, err := c.HTTP.Do(httpReq)
	if err != nil {
		return nil, fmt.Errorf("rpc: %s %s: %w", method, url, err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 4096))
		return nil, fmt.Errorf("rpc: %s: status %d: %s", url, httpResp.StatusCode, msg)
	}
	// Reading to EOF also hands the connection back to the idle pool, so
	// fan-out rounds do not re-pay connection setup.
	raw, err := readLimited(httpResp.Body, httpResp.ContentLength, maxResponseBody)
	if err != nil {
		return nil, fmt.Errorf("rpc: read %s: %w", url, err)
	}
	return raw, nil
}

// errTooLarge marks a body over its read limit.
var errTooLarge = errors.New("body exceeds limit")

// readLimited reads r to EOF, refusing more than limit bytes. size is the
// declared length (-1 when unknown): a declared length over the limit is
// refused unread, and a known one sizes the buffer once.
func readLimited(r io.Reader, size, limit int64) ([]byte, error) {
	if size > limit {
		return nil, fmt.Errorf("%w: %d bytes declared, limit %d", errTooLarge, size, limit)
	}
	var buf bytes.Buffer
	if size > 0 {
		buf.Grow(int(size) + bytes.MinRead)
	}
	n, err := buf.ReadFrom(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if n > limit {
		return nil, fmt.Errorf("%w of %d bytes", errTooLarge, limit)
	}
	return buf.Bytes(), nil
}

// post sends req as JSON and decodes the JSON answer into resp (nil to
// discard it).
func (c *HTTPClient) post(ctx context.Context, url string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("rpc: marshal: %w", err)
	}
	raw, err := c.do(ctx, http.MethodPost, url, "application/json", body)
	if err != nil || resp == nil {
		return err
	}
	if err := json.Unmarshal(raw, resp); err != nil {
		return fmt.Errorf("rpc: decode %s: %w", url, err)
	}
	return nil
}

// get issues a GET and decodes the JSON answer.
func (c *HTTPClient) get(ctx context.Context, url string, resp any) error {
	raw, err := c.do(ctx, http.MethodGet, url, "", nil)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, resp); err != nil {
		return fmt.Errorf("rpc: decode %s: %w", url, err)
	}
	return nil
}

// SwitchSnapshot pulls the state-sync snapshot of the switch agent at
// baseURL (GET /snapshot). Apply it to a local agent with Apply.
func (c *HTTPClient) SwitchSnapshot(ctx context.Context, baseURL string) (SwitchSnapshotResponse, error) {
	var out SwitchSnapshotResponse
	err := c.get(ctx, baseURL+"/snapshot", &out)
	return out, err
}

// round POSTs one daemon-level round to the host daemon at root and checks
// the daemon answered every host.
func round[T any](ctx context.Context, c *HTTPClient, root string, k roundKind[T], req RoundRequest) ([]T, error) {
	url := root + RoundsPath + k.name
	raw, err := c.do(ctx, http.MethodPost, url, "application/octet-stream", req.appendWire(nil))
	if err != nil {
		return nil, err
	}
	resp, err := k.decodeResponse(raw)
	if err != nil {
		return nil, fmt.Errorf("rpc: decode %s: %w", url, err)
	}
	if len(resp.Answers) != len(req.Hosts) {
		return nil, fmt.Errorf("rpc: %s round answered %d of %d hosts", k.name, len(resp.Answers), len(req.Hosts))
	}
	return resp.Answers, nil
}

// HeadersRound asks every host in hosts, all served by the daemon at root,
// for the records matching each query (POST /rounds/headers): answers[i][q]
// is hosts[i]'s answer to qs[q], and answers[i] is nil for a host the
// daemon does not serve.
func (c *HTTPClient) HeadersRound(ctx context.Context, root string, hosts []netsim.IPv4, qs []hostagent.HeadersQuery) ([][]hostagent.HeadersAnswer, error) {
	return round(ctx, c, root, headersKind, RoundRequest{Hosts: hosts, Queries: qs})
}

// TopKRound asks every host in hosts, all served by the daemon at root, for
// its top-k flows through switch sw (POST /rounds/topk); answers[i] is nil
// for a host the daemon does not serve.
func (c *HTTPClient) TopKRound(ctx context.Context, root string, hosts []netsim.IPv4, sw netsim.NodeID, k int) ([][]hostagent.FlowBytes, error) {
	return round(ctx, c, root, topkKind, RoundRequest{Hosts: hosts, Switch: sw, K: k})
}

// FlowSizesRound asks every host in hosts, all served by the daemon at root,
// for flow sizes + egress links at switch sw (POST /rounds/flowsizes);
// answers[i] is nil for a host the daemon does not serve.
func (c *HTTPClient) FlowSizesRound(ctx context.Context, root string, hosts []netsim.IPv4, sw netsim.NodeID) ([][]hostagent.FlowSize, error) {
	return round(ctx, c, root, flowSizesKind, RoundRequest{Hosts: hosts, Switch: sw})
}

// QueryPriority fetches a flow's priority from a host.
func (c *HTTPClient) QueryPriority(ctx context.Context, baseURL string, flow netsim.FlowKey) (uint8, bool, error) {
	var out PriorityResponse
	err := c.post(ctx, baseURL+"/priority", PriorityRequest{Flow: flow}, &out)
	return out.Priority, out.Known, err
}

// QueryRecord fetches one flow's full record from its destination host.
func (c *HTTPClient) QueryRecord(ctx context.Context, baseURL string, flow netsim.FlowKey) (*flowrec.Record, bool, error) {
	var out RecordResponse
	err := c.post(ctx, baseURL+"/record", RecordRequest{Flow: flow}, &out)
	return out.Record, out.Known && err == nil, err
}

// InstallMPH distributes a minimal perfect hash table to the switch at
// baseURL (the §4.3 membership-change push).
func (c *HTTPClient) InstallMPH(ctx context.Context, baseURL string, t *mph.Table) error {
	raw, err := t.MarshalBinary()
	if err != nil {
		return fmt.Errorf("rpc: marshal mph: %w", err)
	}
	return c.post(ctx, baseURL+"/mph", MPHRequest{TableB64: base64.StdEncoding.EncodeToString(raw)}, nil)
}

// PullPointers fetches a switch's pointer union for an epoch range.
func (c *HTTPClient) PullPointers(ctx context.Context, baseURL string, epochs simtime.EpochRange) (*bitset.Set, PointersResponse, error) {
	var out PointersResponse
	if err := c.post(ctx, baseURL+"/pointers", PointersRequest{EpochLo: epochs.Lo, EpochHi: epochs.Hi}, &out); err != nil {
		return nil, out, err
	}
	bits, err := out.Decode()
	return bits, out, err
}
