package analyzer

import (
	"context"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
)

// HostBackend is the analyzer's seam to end-host telemetry: every per-host
// interaction of the five diagnosis procedures — the fan-out query rounds
// and the two single-host probes — goes through this interface, mirroring
// what the Directory interface does for switch pointer state. The in-memory
// implementation (MemoryHosts, the default) reaches hostagent.Agent
// executors directly; the HTTP implementation (RemoteHosts) reaches the
// same executors over their HTTP binding — one binary-bodied request per
// host daemon per round (rpc.NewHostRoundHandler), one JSON request per
// probe (rpc.NewHostHandler) — so a whole diagnosis can run over the wire.
//
// # Round contract
//
// The *Round methods each run one per-host query round and carry the
// rpc.FanOut partial-result contract through unchanged, because the
// procedures' cost accounting depends on it:
//
//   - answers[i] is host hosts[i]'s reply; only indices < dispatched are
//     meaningful, and dispatched is always a prefix of the host list
//     (cancellation stops dispatch at a deterministic per-host checkpoint).
//   - Every dispatched host's answer is complete when the round returns, so
//     callers merge in host order and results never depend on worker
//     scheduling; workers ≤ 0 selects rpc.DefaultFanOutWorkers.
//   - err is the ctx error observed at the checkpoint that stopped early,
//     nil on a full round. A host the backend cannot reach (absent agent,
//     dead daemon) yields a zero answer, not an error — one dead host never
//     aborts a round.
//   - The checkpoints are one ctx.Err call per host, in host order, however
//     the backend batches its transport, so a cancelled round charges the
//     same prefix on every backend.
//
// Implementations must support any number of concurrent rounds (the
// admission controller overlaps whole diagnoses).
type HostBackend interface {
	// HeadersRound asks each host for records matching each query:
	// answers[i][q] holds hosts[i]'s answer for queries[q] — the matching
	// records plus the host's cold read-back accounting (segments decoded
	// past the hot window), which the procedures charge as one extra
	// virtual-time round.
	HeadersRound(ctx context.Context, workers int, hosts []netsim.IPv4, queries []hostagent.HeadersQuery) (answers [][]hostagent.HeadersAnswer, dispatched int, err error)
	// TopKRound asks each host for its top-k flows through switch sw.
	TopKRound(ctx context.Context, workers int, hosts []netsim.IPv4, sw netsim.NodeID, k int) (answers [][]hostagent.FlowBytes, dispatched int, err error)
	// FlowSizesRound asks each host for flow sizes + egress links at sw.
	FlowSizesRound(ctx context.Context, workers int, hosts []netsim.IPv4, sw netsim.NodeID) (answers [][]hostagent.FlowSize, dispatched int, err error)
	// Priority asks one host for a flow's recorded DSCP priority.
	Priority(ctx context.Context, ip netsim.IPv4, flow netsim.FlowKey) (uint8, bool)
	// Record fetches one flow's record from its destination host — the
	// cascade procedure's synthetic-alert source. ok is false when the host
	// is unreachable or holds no record for the flow.
	Record(ctx context.Context, ip netsim.IPv4, flow netsim.FlowKey) (*flowrec.Record, bool)
}

// hostBackend resolves the analyzer's host backend: the explicit HostBack
// when set, else the in-memory default over the Hosts map.
func (a *Analyzer) hostBackend() HostBackend {
	if a.HostBack != nil {
		return a.HostBack
	}
	return MemoryHosts{Agents: a.Hosts}
}

// MemoryHosts is the default HostBackend: it reaches host agents in-process
// (the analyzer colocated with the simulated testbed). Hosts without an
// agent answer every query with nothing, matching a silent server.
type MemoryHosts struct {
	Agents map[netsim.IPv4]*hostagent.Agent
}

var _ HostBackend = MemoryHosts{}

// HeadersRound implements HostBackend over in-process agents.
func (m MemoryHosts) HeadersRound(ctx context.Context, workers int, hosts []netsim.IPv4, queries []hostagent.HeadersQuery) ([][]hostagent.HeadersAnswer, int, error) {
	answers := make([][]hostagent.HeadersAnswer, len(hosts))
	dispatched, err := rpc.FanOut(ctx, workers, len(hosts), func(ctx context.Context, i int) {
		ag, ok := m.Agents[hosts[i]]
		if !ok {
			return
		}
		// One multi-query pass per host: cold segments decode once per
		// round, not once per alert tuple.
		per := ag.QueryHeadersMulti(ctx, queries)
		answers[i] = per
	})
	return answers, dispatched, err
}

// TopKRound implements HostBackend over in-process agents.
func (m MemoryHosts) TopKRound(ctx context.Context, workers int, hosts []netsim.IPv4, sw netsim.NodeID, k int) ([][]hostagent.FlowBytes, int, error) {
	answers := make([][]hostagent.FlowBytes, len(hosts))
	dispatched, err := rpc.FanOut(ctx, workers, len(hosts), func(ctx context.Context, i int) {
		if ag, ok := m.Agents[hosts[i]]; ok {
			answers[i] = ag.QueryTopK(ctx, sw, k)
		}
	})
	return answers, dispatched, err
}

// FlowSizesRound implements HostBackend over in-process agents.
func (m MemoryHosts) FlowSizesRound(ctx context.Context, workers int, hosts []netsim.IPv4, sw netsim.NodeID) ([][]hostagent.FlowSize, int, error) {
	answers := make([][]hostagent.FlowSize, len(hosts))
	dispatched, err := rpc.FanOut(ctx, workers, len(hosts), func(ctx context.Context, i int) {
		if ag, ok := m.Agents[hosts[i]]; ok {
			answers[i] = ag.QueryFlowSizes(ctx, sw)
		}
	})
	return answers, dispatched, err
}

// Priority implements HostBackend over in-process agents.
func (m MemoryHosts) Priority(ctx context.Context, ip netsim.IPv4, flow netsim.FlowKey) (uint8, bool) {
	ag, ok := m.Agents[ip]
	if !ok {
		return 0, false
	}
	return ag.QueryPriority(ctx, flow)
}

// Record implements HostBackend over in-process agents.
func (m MemoryHosts) Record(ctx context.Context, ip netsim.IPv4, flow netsim.FlowKey) (*flowrec.Record, bool) {
	ag, ok := m.Agents[ip]
	if !ok {
		return nil, false
	}
	return ag.LookupRecord(ctx, flow)
}
