package cluster

import (
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/metrics"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
	"switchpointer/internal/scenario"
	"switchpointer/internal/statesync"
	"switchpointer/internal/trace"
)

// HostMux serves every host agent of a testbed on one handler. The query
// rounds are daemon-level: POST /rounds/{headers,topk,flowsizes}
// (rpc.NewHostRoundHandler) asks any set of the served hosts in one
// request. Single-host routes are multiplexed by IP under /hosts/<ip>/ —
// the rpc.NewHostHandler probes (/priority, /record) plus the state-sync
// plane (GET /hosts/<ip>/snapshot, POST /hosts/<ip>/ingest). /healthz
// answers the statesync.Health document (state + resident-record/
// evicted-segment accounting) against rd; a nil rd reports permanently
// live — the non-bootstrap daemon. This is what `spd host` serves;
// HostRoots maps its hosts to its root URL. The daemon's
// self-observability rides along: GET /metrics (Prometheus text over a
// HostRegistry) and GET /stats (the HostStatsDoc JSON).
func HostMux(tb *scenario.Testbed, rd *statesync.Readiness) http.Handler {
	return HostMuxWith(tb, rd, HostRegistry(tb, rd), trace.NewFlightRecorder("host", 0))
}

// HostMuxWith is HostMux with a caller-supplied metric registry — the spd
// daemon passes one so it can add process-level families (uptime) before
// mounting — and flight recorder. The round and per-host handlers record
// one child span per host for traced requests into fr, served back at GET
// /traces; a nil fr disables both.
func HostMuxWith(tb *scenario.Testbed, rd *statesync.Readiness, reg *metrics.Registry, fr *trace.FlightRecorder) http.Handler {
	mux := http.NewServeMux()
	mux.Handle(rpc.RoundsPath, rpc.NewHostRoundHandler(tb.HostAgents, fr))
	for ip, ag := range tb.HostAgents {
		prefix := rpc.HostPath(ip)
		mux.Handle(prefix+"/", http.StripPrefix(prefix, rpc.NewTracedHostHandler(ag, ip.String(), fr)))
		mux.Handle(prefix+"/snapshot", statesync.HostSnapshotHandler(ag))
		mux.Handle(prefix+"/ingest", statesync.IngestHandler(ag, rd))
	}
	mux.Handle("/healthz", statesync.HealthzHandler(rd, hostStats(tb)))
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/stats", HostStatsHandler(tb, rd))
	if fr != nil {
		mux.Handle("/traces", http.StripPrefix("/traces", fr.Handler()))
		mux.Handle("/traces/", http.StripPrefix("/traces", fr.Handler()))
	}
	return mux
}

// hostStats sums a host daemon's /healthz accounting: records resident
// across every agent's store, and flushed (evicted) segments across every
// agent's cold read-back log.
func hostStats(tb *scenario.Testbed) func() (resident, evictedSegments int) {
	return func() (resident, evictedSegments int) {
		for _, ag := range tb.HostAgents {
			resident += ag.Store.Len()
			if cold := ag.ColdReader(); cold != nil {
				v := cold.View()
				evictedSegments += v.Len()
				v.Close()
			}
		}
		return resident, evictedSegments
	}
}

// SwitchMux serves every switch agent of a testbed on one handler,
// multiplexed by switch ID under /switches/<id>/ (the rpc.NewSwitchHandler
// routes below it, including the state-sync GET /switches/<id>/snapshot).
// /healthz reports readiness against rd plus the daemon's pushed
// control-store slot count as its resident-record figure — what `spd
// switch` serves. GET /metrics and GET /stats ride along as on HostMux.
func SwitchMux(tb *scenario.Testbed, rd *statesync.Readiness) http.Handler {
	return SwitchMuxWith(tb, rd, SwitchRegistry(tb, rd), trace.NewFlightRecorder("switch", 0))
}

// SwitchMuxWith is SwitchMux with a caller-supplied metric registry and
// flight recorder (nil disables span recording and the /traces endpoints).
func SwitchMuxWith(tb *scenario.Testbed, rd *statesync.Readiness, reg *metrics.Registry, fr *trace.FlightRecorder) http.Handler {
	mux := http.NewServeMux()
	for id, ag := range tb.SwitchAgents {
		prefix := "/switches/" + strconv.Itoa(int(id))
		mux.Handle(prefix+"/", http.StripPrefix(prefix, rpc.NewTracedSwitchHandler(ag, strconv.Itoa(int(id)), fr)))
	}
	mux.Handle("/healthz", statesync.HealthzHandler(rd, func() (int, int) {
		resident := 0
		for _, ag := range tb.SwitchAgents {
			resident += ag.ControlStoreLen()
		}
		return resident, 0
	}))
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/stats", SwitchStatsHandler(tb, rd))
	if fr != nil {
		mux.Handle("/traces", http.StripPrefix("/traces", fr.Handler()))
		mux.Handle("/traces/", http.StripPrefix("/traces", fr.Handler()))
	}
	return mux
}

// HostRoots maps every host IP of tb to root, the URL of the HostMux
// daemon serving them all — the input analyzer.NewRemoteHosts takes.
func HostRoots(root string, tb *scenario.Testbed) map[netsim.IPv4]string {
	roots := make(map[netsim.IPv4]string, len(tb.HostAgents))
	for ip := range tb.HostAgents {
		roots[ip] = root
	}
	return roots
}

// SwitchURLs maps every switch ID to its base URL under a SwitchMux server
// root.
func SwitchURLs(base string, tb *scenario.Testbed) map[netsim.NodeID]string {
	urls := make(map[netsim.NodeID]string, len(tb.SwitchAgents))
	for id := range tb.SwitchAgents {
		urls[id] = base + "/switches/" + strconv.Itoa(int(id))
	}
	return urls
}

// NewRemoteAnalyzer assembles an analyzer whose every backend speaks HTTP:
// pointer pulls and MPH distribution through analyzer.RemoteDirectory
// against the switch URLs, all per-host query rounds through
// analyzer.RemoteHosts against the host daemons (hostRoots maps each host
// to its daemon's root URL). One pooled client is shared
// by both planes so keep-alive connections span a whole diagnosis. The
// topology and cost model come from the (locally rebuilt) testbed — the
// deployment knowledge an analyzer node carries.
//
// The host-IP index order is tb.Topo.Hosts() order, matching the MPH the
// testbed distributed to its switches, so remotely decoded pointer bitmaps
// agree with in-memory decoding bit for bit.
func NewRemoteAnalyzer(tb *scenario.Testbed, hostRoots map[netsim.IPv4]string, switchURLs map[netsim.NodeID]string, client *rpc.HTTPClient) (*analyzer.Analyzer, error) {
	if client == nil {
		client = rpc.NewPooledHTTPClient()
	}
	hosts := tb.Topo.Hosts()
	ips := make([]netsim.IPv4, 0, len(hosts))
	for _, h := range hosts {
		ips = append(ips, h.IP())
	}
	dir, err := analyzer.NewRemoteDirectory(ips, switchURLs, client)
	if err != nil {
		return nil, err
	}
	a := analyzer.New(tb.Topo, dir, nil, tb.Opt.Cost)
	a.HostBack = analyzer.NewRemoteHosts(hostRoots, client)
	return a, nil
}

// Loopback is a whole SwitchPointer service plane on 127.0.0.1: the
// testbed's host agents behind HostMux, its switch agents behind SwitchMux,
// and an admission-controlled analyzer service whose analyzer reaches both
// only over HTTP. It is the in-process twin of an `spd host|switch|analyzer`
// trio — the launcher tests and the e2e equivalence gate use.
type Loopback struct {
	// HostURL/SwitchURL/AnalyzerURL are the three servers' roots.
	HostURL, SwitchURL, AnalyzerURL string
	// HostRoots maps every host to HostURL; SwitchURLs maps every switch
	// to its per-agent base URL.
	HostRoots  map[netsim.IPv4]string
	SwitchURLs map[netsim.NodeID]string

	// Analyzer is the remote-backend analyzer the service executes.
	Analyzer *analyzer.Analyzer
	// Admission is the controller in front of it.
	Admission *Admission
	// Client is pre-pointed at the analyzer service.
	Client *Client

	// HostFlight/SwitchFlight/AnalyzerFlight are the three daemons' trace
	// flight recorders, served at each root's GET /traces. AnalyzerFlight
	// advertises the other two as peers so a trace client can walk the
	// whole trio from the analyzer alone.
	HostFlight     *trace.FlightRecorder
	SwitchFlight   *trace.FlightRecorder
	AnalyzerFlight *trace.FlightRecorder

	httpClient *rpc.HTTPClient
	servers    []*http.Server
}

// NewLoopback serves tb's full service plane on three fresh loopback
// listeners. The testbed must be idle (run to its horizon) — the simulated
// agents are served in place. Close releases everything.
func NewLoopback(tb *scenario.Testbed, cfg AdmissionConfig) (*Loopback, error) {
	lb := &Loopback{
		httpClient:     rpc.NewPooledHTTPClient(),
		HostFlight:     trace.NewFlightRecorder("host", 0),
		SwitchFlight:   trace.NewFlightRecorder("switch", 0),
		AnalyzerFlight: trace.NewFlightRecorder("analyzer", 0),
	}

	hostURL, err := lb.serve(HostMuxWith(tb, nil, HostRegistry(tb, nil), lb.HostFlight))
	if err != nil {
		lb.Close()
		return nil, err
	}
	switchURL, err := lb.serve(SwitchMuxWith(tb, nil, SwitchRegistry(tb, nil), lb.SwitchFlight))
	if err != nil {
		lb.Close()
		return nil, err
	}
	lb.HostURL, lb.SwitchURL = hostURL, switchURL
	lb.HostRoots = HostRoots(hostURL, tb)
	lb.SwitchURLs = SwitchURLs(switchURL, tb)
	lb.AnalyzerFlight.SetPeers(map[string]string{"hosts": hostURL, "switches": switchURL})

	lb.Analyzer, err = NewRemoteAnalyzer(tb, lb.HostRoots, lb.SwitchURLs, lb.httpClient)
	if err != nil {
		lb.Close()
		return nil, err
	}
	lb.Admission = NewAdmission(lb.Analyzer, cfg)
	lb.Admission.Flight = lb.AnalyzerFlight
	lb.AnalyzerURL, err = lb.serve(NewAnalyzerHandler(lb.Admission))
	if err != nil {
		lb.Close()
		return nil, err
	}
	lb.Client = &Client{BaseURL: lb.AnalyzerURL}
	return lb, nil
}

// NewHTTPServer is the http.Server every daemon role runs h on. It bounds
// how long a client may take to send request headers, and closes idle
// keep-alive connections only after IdleTimeout, which outlasts the pooled
// analyzer client's 90 s IdleConnTimeout so the client, not the server,
// retires an idle connection and reuse is never cut short.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// serve starts one HTTP server on a fresh 127.0.0.1 listener and returns
// its root URL.
func (lb *Loopback) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("cluster: loopback listen: %w", err)
	}
	srv := NewHTTPServer(h)
	lb.servers = append(lb.servers, srv)
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return "http://" + ln.Addr().String(), nil
}

// Close shuts every server down and drops pooled connections.
func (lb *Loopback) Close() {
	for _, srv := range lb.servers {
		srv.Close() //nolint:errcheck
	}
	if lb.httpClient != nil {
		lb.httpClient.CloseIdleConnections()
	}
}
