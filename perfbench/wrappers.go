package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync/atomic"
	"time"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/cluster"
	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

// layers accumulates what the traced run's wrappers observe. Every field
// is updated from concurrent diagnoses, hence the atomics.
type layers struct {
	runs, runNS               atomic.Int64
	dirCalls, dirNS           atomic.Int64
	hostRounds, hostHosts     atomic.Int64
	hostNS                    atomic.Int64
	requests, reqBytes        atomic.Int64
	respBytes, clientNS       atomic.Int64
	connsNew, connsReused     atomic.Int64
	serverWaits, serverWaitNS atomic.Int64
	clientCalls               atomic.Int64
}

func since(start time.Time) int64 { return int64(time.Since(start)) }

// timedRunner wraps the analyzer an admission controller executes: the
// time inside it is analyzer.run_s, the rest of the client latency is the
// service plane.
type timedRunner struct {
	inner cluster.Runner
	l     *layers
}

func (r timedRunner) Run(ctx context.Context, q analyzer.Query) (*analyzer.Report, error) {
	start := time.Now()
	defer func() { r.l.runs.Add(1); r.l.runNS.Add(since(start)) }()
	return r.inner.Run(ctx, q)
}

// timedDirectory times the switch pointer pulls.
type timedDirectory struct {
	analyzer.Directory
	l *layers
}

func (d timedDirectory) Hosts(ctx context.Context, sw netsim.NodeID, epochs simtime.EpochRange) ([]netsim.IPv4, error) {
	defer d.l.dir(time.Now())
	return d.Directory.Hosts(ctx, sw, epochs)
}

func (d timedDirectory) HostsBatch(ctx context.Context, reqs []analyzer.SwitchEpochs) ([][]netsim.IPv4, []error) {
	defer d.l.dir(time.Now())
	return d.Directory.HostsBatch(ctx, reqs)
}

func (l *layers) dir(start time.Time) {
	l.dirCalls.Add(1)
	l.dirNS.Add(since(start))
}

// timedHosts times every host round and counts the hosts it asks.
type timedHosts struct {
	analyzer.HostBackend
	l *layers
}

func (l *layers) round(start time.Time, hosts int) {
	l.hostRounds.Add(1)
	l.hostHosts.Add(int64(hosts))
	l.hostNS.Add(since(start))
}

func (h timedHosts) HeadersRound(ctx context.Context, workers int, hosts []netsim.IPv4, qs []hostagent.HeadersQuery) ([][]hostagent.HeadersAnswer, int, error) {
	defer h.l.round(time.Now(), len(hosts))
	return h.HostBackend.HeadersRound(ctx, workers, hosts, qs)
}

func (h timedHosts) TopKRound(ctx context.Context, workers int, hosts []netsim.IPv4, sw netsim.NodeID, k int) ([][]hostagent.FlowBytes, int, error) {
	defer h.l.round(time.Now(), len(hosts))
	return h.HostBackend.TopKRound(ctx, workers, hosts, sw, k)
}

func (h timedHosts) FlowSizesRound(ctx context.Context, workers int, hosts []netsim.IPv4, sw netsim.NodeID) ([][]hostagent.FlowSize, int, error) {
	defer h.l.round(time.Now(), len(hosts))
	return h.HostBackend.FlowSizesRound(ctx, workers, hosts, sw)
}

func (h timedHosts) Priority(ctx context.Context, ip netsim.IPv4, flow netsim.FlowKey) (uint8, bool) {
	defer h.l.round(time.Now(), 1)
	return h.HostBackend.Priority(ctx, ip, flow)
}

func (h timedHosts) Record(ctx context.Context, ip netsim.IPv4, flow netsim.FlowKey) (*flowrec.Record, bool) {
	defer h.l.round(time.Now(), 1)
	return h.HostBackend.Record(ctx, ip, flow)
}

// countingTransport sits on the analyzer's pooled transport: it counts
// requests and body bytes, follows each request with an
// httptrace.ClientTrace (new vs reused connection, wait from the request
// written to the first response byte), and times each exchange until its
// body is closed.
type countingTransport struct {
	inner http.RoundTripper
	l     *layers
}

func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	// The trace callbacks run on the transport's own goroutines.
	var wroteNS atomic.Int64
	ct := &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				t.l.connsReused.Add(1)
			} else {
				t.l.connsNew.Add(1)
			}
		},
		WroteRequest: func(httptrace.WroteRequestInfo) { wroteNS.Store(since(start)) },
		GotFirstResponseByte: func() {
			if w := wroteNS.Load(); w > 0 {
				t.l.serverWaits.Add(1)
				t.l.serverWaitNS.Add(since(start) - w)
			}
		},
	}
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), ct))
	t.l.requests.Add(1)
	if req.ContentLength > 0 {
		t.l.reqBytes.Add(req.ContentLength)
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		t.l.clientCalls.Add(1)
		t.l.clientNS.Add(since(start))
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, l: t.l, start: start}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	l      *layers
	start  time.Time
	closed atomic.Bool
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.l.respBytes.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error {
	if !b.closed.Swap(true) {
		b.l.clientCalls.Add(1)
		b.l.clientNS.Add(since(b.start))
	}
	return b.ReadCloser.Close()
}

// metrics turns the wrapper totals into the diagnosis-side per-layer
// metrics: per diagnosis, except the rpc timings, which are per request.
func (l *layers) metrics(m map[string]float64, diags int, meanLatencyS float64) {
	s := func(ns *atomic.Int64) float64 { return float64(ns.Load()) / 1e9 }
	f := func(n *atomic.Int64) float64 { return float64(n.Load()) }
	runS := perOp(s(&l.runNS), int(l.runs.Load()))
	dirS := perOp(s(&l.dirNS), int(l.runs.Load()))
	hostS := perOp(s(&l.hostNS), int(l.runs.Load()))
	m["cluster.service_s"] = meanLatencyS - runS
	m["analyzer.run_s"] = runS
	m["analyzer.self_s"] = runS - dirS - hostS
	m["analyzer.dir_calls"] = perOp(f(&l.dirCalls), diags)
	m["analyzer.dir_s"] = dirS
	m["analyzer.host_rounds"] = perOp(f(&l.hostRounds), diags)
	m["analyzer.hosts_per_round"] = perOp(f(&l.hostHosts), int(l.hostRounds.Load()))
	m["analyzer.host_s"] = hostS
	m["rpc.requests"] = perOp(f(&l.requests), diags)
	m["rpc.req_bytes"] = perOp(f(&l.reqBytes), diags)
	m["rpc.resp_bytes"] = perOp(f(&l.respBytes), diags)
	m["rpc.conns_new"] = perOp(f(&l.connsNew), diags)
	m["rpc.conn_reuse_ratio"] = perOp(f(&l.connsReused), int(l.connsNew.Load()+l.connsReused.Load()))
	m["rpc.server_wait_s"] = perOp(s(&l.serverWaitNS), int(l.serverWaits.Load()))
	m["rpc.client_s"] = perOp(s(&l.clientNS), int(l.clientCalls.Load()))
}
