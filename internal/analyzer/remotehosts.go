package analyzer

import (
	"context"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
)

// RemoteHosts is the HostBackend for a real deployment: every per-host
// query round of the diagnosis procedures travels the HTTP binding, in the
// binary round codec, to the host daemons' round endpoints
// (rpc.NewHostRoundHandler) — the host-side twin of RemoteDirectory. A
// round costs one request per daemon, not per host: the hosts are grouped
// by the daemon that serves them, each daemon answers all of its hosts in
// one response, and the daemons are asked in parallel. With both installed on an Analyzer, a whole diagnosis
// (pointer pulls, MPH distribution, and all per-host rounds) runs over the
// wire, and the Report is byte-identical to the in-memory run: the round
// walks the host list in order with one ctx check per host (the rpc.FanOut
// cadence, so the dispatched set is the same deterministic prefix and the
// partial-cost contract under cancellation is unchanged), and answers
// merge back in host order.
//
// A host without a registered daemon, one its daemon does not serve, or one
// whose daemon fails the request, answers with nothing — the same
// silent-server semantics as an absent in-memory agent, so one dead daemon
// never aborts a round and never blanks another daemon's hosts.
//
// Concurrency: all methods are safe for concurrent use (rpc.HTTPClient is
// goroutine-safe), including overlapping whole diagnoses.
type RemoteHosts struct {
	roots  map[netsim.IPv4]string // host → root URL of the daemon serving it
	client *rpc.HTTPClient

	// Workers bounds how many daemons a round asks at once; zero selects
	// the caller's width (the analyzer passes its own Workers setting per
	// round).
	Workers int
}

var _ HostBackend = (*RemoteHosts)(nil)

// NewRemoteHosts binds host agents to the root URLs of the host daemons
// serving them (an `spd host` root serves every agent of its testbed).
// client may be nil, in which case a pooled client (keep-alive transport)
// is used — the right default, since query rounds repeat against the same
// daemons.
func NewRemoteHosts(hostRoots map[netsim.IPv4]string, client *rpc.HTTPClient) *RemoteHosts {
	if client == nil {
		client = rpc.NewPooledHTTPClient()
	}
	return &RemoteHosts{roots: hostRoots, client: client}
}

// Client returns the underlying HTTP client (shared with RemoteDirectory in
// typical deployments so the connection pool spans both planes).
func (r *RemoteHosts) Client() *rpc.HTTPClient { return r.client }

// workers resolves the per-round fan-out width.
func (r *RemoteHosts) workers(callerWorkers int) int {
	if callerWorkers > 0 {
		return callerWorkers
	}
	return r.Workers
}

// daemonShare is one daemon's part of a round: the root it is served at,
// and the hosts it answers for with their indices in the round's host list.
type daemonShare struct {
	root  string
	idx   []int
	hosts []netsim.IPv4
}

// remoteRound runs one round over HTTP. It walks hosts once in order,
// consulting ctx.Err exactly once per host, and groups the dispatched
// prefix by daemon (in order of first appearance). It then sends one
// request per daemon, at most workers at once, under a context derived from
// ctx so that request-side checks never consume the caller's. A daemon
// whose request fails leaves its hosts' answers nil.
func remoteRound[T any](ctx context.Context, r *RemoteHosts, workers int, hosts []netsim.IPv4,
	ask func(ctx context.Context, root string, hosts []netsim.IPv4) ([]T, error)) ([]T, int, error) {
	var shares []daemonShare // a deployment runs few daemons: scan, no map
	dispatched := 0
	var err error
	for ; dispatched < len(hosts); dispatched++ {
		if err = ctx.Err(); err != nil {
			break
		}
		ip := hosts[dispatched]
		root, ok := r.roots[ip]
		if !ok {
			continue
		}
		s := 0
		for s < len(shares) && shares[s].root != root {
			s++
		}
		if s == len(shares) {
			shares = append(shares, daemonShare{root: root})
		}
		shares[s].idx = append(shares[s].idx, dispatched)
		shares[s].hosts = append(shares[s].hosts, ip)
	}

	answers := make([]T, len(hosts))
	sendCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// A send cut short by cancellation leaves its hosts unanswered, like a
	// request cancelled in flight; the round's error is the walk's.
	rpc.FanOut(sendCtx, r.workers(workers), len(shares), func(ctx context.Context, s int) {
		got, err := ask(ctx, shares[s].root, shares[s].hosts)
		if err != nil {
			return
		}
		for j, i := range shares[s].idx {
			answers[i] = got[j]
		}
	})
	return answers, dispatched, err
}

// HeadersRound implements HostBackend over HTTP: one POST /rounds/headers
// per daemon carrying every query of the round (matching the one-round
// virtual-time charge), answers per host in query order. The hosts' cold
// read-back accounting rides the round codec, so a remote diagnosis charges
// the extra round exactly like the in-memory one.
func (r *RemoteHosts) HeadersRound(ctx context.Context, workers int, hosts []netsim.IPv4, queries []hostagent.HeadersQuery) ([][]hostagent.HeadersAnswer, int, error) {
	return remoteRound(ctx, r, workers, hosts, func(ctx context.Context, root string, hosts []netsim.IPv4) ([][]hostagent.HeadersAnswer, error) {
		return r.client.HeadersRound(ctx, root, hosts, queries)
	})
}

// TopKRound implements HostBackend over HTTP (POST /rounds/topk per daemon).
func (r *RemoteHosts) TopKRound(ctx context.Context, workers int, hosts []netsim.IPv4, sw netsim.NodeID, k int) ([][]hostagent.FlowBytes, int, error) {
	return remoteRound(ctx, r, workers, hosts, func(ctx context.Context, root string, hosts []netsim.IPv4) ([][]hostagent.FlowBytes, error) {
		return r.client.TopKRound(ctx, root, hosts, sw, k)
	})
}

// FlowSizesRound implements HostBackend over HTTP (POST /rounds/flowsizes
// per daemon).
func (r *RemoteHosts) FlowSizesRound(ctx context.Context, workers int, hosts []netsim.IPv4, sw netsim.NodeID) ([][]hostagent.FlowSize, int, error) {
	return remoteRound(ctx, r, workers, hosts, func(ctx context.Context, root string, hosts []netsim.IPv4) ([][]hostagent.FlowSize, error) {
		return r.client.FlowSizesRound(ctx, root, hosts, sw)
	})
}

// Priority implements HostBackend over HTTP; an unreachable host answers
// "unknown".
func (r *RemoteHosts) Priority(ctx context.Context, ip netsim.IPv4, flow netsim.FlowKey) (uint8, bool) {
	root, ok := r.roots[ip]
	if !ok {
		return 0, false
	}
	prio, known, err := r.client.QueryPriority(ctx, root+rpc.HostPath(ip), flow)
	if err != nil {
		return 0, false
	}
	return prio, known
}

// Record implements HostBackend over HTTP; an unreachable host answers
// "no record".
func (r *RemoteHosts) Record(ctx context.Context, ip netsim.IPv4, flow netsim.FlowKey) (*flowrec.Record, bool) {
	root, ok := r.roots[ip]
	if !ok {
		return nil, false
	}
	rec, known, err := r.client.QueryRecord(ctx, root+rpc.HostPath(ip), flow)
	if err != nil || rec == nil {
		return nil, false
	}
	return rec, known
}
