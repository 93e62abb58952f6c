package analyzer_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
	"switchpointer/internal/scenario"
	"switchpointer/internal/simtime"
)

// countingTransport counts the HTTP requests a client sends.
type countingTransport struct{ n atomic.Int64 }

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// countdownCtx cancels after a fixed number of Err checks and counts them,
// a deterministic stand-in for a context cancelled mid-round.
type countdownCtx struct {
	context.Context
	remaining, calls int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

// roundBed is a small top-k testbed whose host agents answer rounds both
// in memory and from host daemons on loopback.
type roundBed struct {
	tb    *scenario.Testbed
	sw    netsim.NodeID
	hosts []netsim.IPv4
	mem   analyzer.MemoryHosts
}

func newRoundBed(t *testing.T) *roundBed {
	t.Helper()
	s, err := scenario.NewTopKWorkload(4, 6, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Testbed.Run(50 * simtime.Millisecond)
	b := &roundBed{tb: s.Testbed, sw: s.Queried.NodeID(), mem: analyzer.MemoryHosts{Agents: s.Testbed.HostAgents}}
	for _, h := range s.Testbed.Topo.Hosts() {
		b.hosts = append(b.hosts, h.IP())
	}
	return b
}

// daemon serves the round endpoints for the given hosts on a fresh
// loopback server.
func (b *roundBed) daemon(t *testing.T, hosts []netsim.IPv4) *httptest.Server {
	t.Helper()
	agents := make(map[netsim.IPv4]*hostagent.Agent, len(hosts))
	for _, ip := range hosts {
		agents[ip] = b.tb.HostAgents[ip]
	}
	srv := httptest.NewServer(rpc.NewHostRoundHandler(agents, nil))
	t.Cleanup(srv.Close)
	return srv
}

func (b *roundBed) queries() []hostagent.HeadersQuery {
	return []hostagent.HeadersQuery{
		{Switch: b.sw, Epochs: simtime.EpochRange{Lo: 0, Hi: 10}},
		{Switch: b.sw, Epochs: simtime.EpochRange{Lo: 3, Hi: 4}},
	}
}

// rounds runs all three round kinds against hb and returns their answers
// and dispatched counts.
func (b *roundBed) rounds(t *testing.T, newCtx func() context.Context, hb analyzer.HostBackend, hosts []netsim.IPv4) (answers [3]any, dispatched [3]int) {
	t.Helper()
	var err [3]error
	answers[0], dispatched[0], err[0] = hb.HeadersRound(newCtx(), 4, hosts, b.queries())
	answers[1], dispatched[1], err[1] = hb.TopKRound(newCtx(), 4, hosts, b.sw, 3)
	answers[2], dispatched[2], err[2] = hb.FlowSizesRound(newCtx(), 4, hosts, b.sw)
	for i, e := range err {
		if e != nil && !errors.Is(e, context.Canceled) {
			t.Fatalf("round %d: %v", i, e)
		}
	}
	return answers, dispatched
}

func asJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func background() context.Context { return context.Background() }

// TestRemoteRoundOneRequestPerDaemon: a round over n hosts served by one
// daemon costs exactly one HTTP request, whatever its kind, and answers
// exactly what the in-memory backend answers.
func TestRemoteRoundOneRequestPerDaemon(t *testing.T) {
	b := newRoundBed(t)
	srv := b.daemon(t, b.hosts)
	var ct countingTransport
	rh := analyzer.NewRemoteHosts(roots(b.hosts, srv.URL), rpc.NewHTTPClient(&http.Client{Transport: &ct}))

	ctx := background
	want, _ := b.rounds(t, ctx, b.mem, b.hosts)
	flows := 0
	for _, per := range want[1].([][]hostagent.FlowBytes) {
		flows += len(per)
	}
	if flows == 0 {
		t.Fatal("testbed answers no top-k flows; the comparison would be vacuous")
	}
	for kind, ask := range []func() any{
		func() any { a, _, _ := rh.HeadersRound(ctx(), 4, b.hosts, b.queries()); return a },
		func() any { a, _, _ := rh.TopKRound(ctx(), 4, b.hosts, b.sw, 3); return a },
		func() any { a, _, _ := rh.FlowSizesRound(ctx(), 4, b.hosts, b.sw); return a },
	} {
		before := ct.n.Load()
		got := ask()
		if n := ct.n.Load() - before; n != 1 {
			t.Fatalf("round %d over %d hosts sent %d requests, want 1", kind, len(b.hosts), n)
		}
		if asJSON(t, got) != asJSON(t, want[kind]) {
			t.Fatalf("round %d: remote answers diverge from memory\nremote %s\nmemory %s", kind, asJSON(t, got), asJSON(t, want[kind]))
		}
	}
}

// TestRemoteRoundUnservedHostsAnswerNil: an IP no daemon is registered for
// and an IP its daemon does not serve both answer nil, without failing the
// round or disturbing the other hosts' answers.
func TestRemoteRoundUnservedHostsAnswerNil(t *testing.T) {
	b := newRoundBed(t)
	srv := b.daemon(t, b.hosts)
	stranger, orphan := netsim.IP(192, 0, 2, 1), netsim.IP(192, 0, 2, 2)
	r := roots(b.hosts, srv.URL)
	r[stranger] = srv.URL // registered, but the daemon does not serve it
	rh := analyzer.NewRemoteHosts(r, nil)
	defer rh.Client().CloseIdleConnections()

	hosts := append([]netsim.IPv4{stranger}, b.hosts...)
	hosts = append(hosts, orphan)
	answers, dispatched := b.rounds(t, background, rh, hosts)
	want, _ := b.rounds(t, background, b.mem, hosts)
	for kind := range answers {
		if dispatched[kind] != len(hosts) {
			t.Fatalf("round %d dispatched %d of %d", kind, dispatched[kind], len(hosts))
		}
		if asJSON(t, answers[kind]) != asJSON(t, want[kind]) {
			t.Fatalf("round %d: got %s, want %s", kind, asJSON(t, answers[kind]), asJSON(t, want[kind]))
		}
	}
	top := answers[1].([][]hostagent.FlowBytes)
	if top[0] != nil || top[len(hosts)-1] != nil {
		t.Fatalf("unserved hosts answered: %v / %v", top[0], top[len(hosts)-1])
	}
}

// TestRemoteRoundDeadDaemon: with hosts split across two daemons, a round
// sends one request to each; when one daemon is dead, only its hosts answer
// nil.
func TestRemoteRoundDeadDaemon(t *testing.T) {
	b := newRoundBed(t)
	var even, odd []netsim.IPv4
	for i, ip := range b.hosts {
		if i%2 == 0 {
			even = append(even, ip)
		} else {
			odd = append(odd, ip)
		}
	}
	live, dead := b.daemon(t, even), b.daemon(t, odd)
	r := roots(even, live.URL)
	for ip, root := range roots(odd, dead.URL) {
		r[ip] = root
	}
	var ct countingTransport
	rh := analyzer.NewRemoteHosts(r, rpc.NewHTTPClient(&http.Client{Transport: &ct}))

	want, _ := b.rounds(t, background, b.mem, b.hosts)
	both, _ := b.rounds(t, background, rh, b.hosts)
	if n := ct.n.Load(); n != 6 {
		t.Fatalf("3 rounds over 2 daemons sent %d requests, want 6", n)
	}
	for kind := range both {
		if asJSON(t, both[kind]) != asJSON(t, want[kind]) {
			t.Fatalf("round %d over two daemons diverges from memory", kind)
		}
	}

	dead.Close()
	answers, dispatched := b.rounds(t, background, rh, b.hosts)
	top := answers[1].([][]hostagent.FlowBytes)
	wantTop := want[1].([][]hostagent.FlowBytes)
	for i := range b.hosts {
		if i%2 == 1 && top[i] != nil {
			t.Fatalf("host %d behind the dead daemon answered %v", i, top[i])
		}
		if i%2 == 0 && asJSON(t, top[i]) != asJSON(t, wantTop[i]) {
			t.Fatalf("host %d behind the live daemon: %v, want %v", i, top[i], wantTop[i])
		}
	}
	for kind, d := range dispatched {
		if d != len(b.hosts) {
			t.Fatalf("round %d dispatched %d of %d with a dead daemon", kind, d, len(b.hosts))
		}
	}
}

// TestRemoteRoundCancellationPrefix: under a cutoff after k ctx checks, for
// every k in [0, n], the remote round checks ctx once per host, dispatches
// the same prefix and returns the same answers as the in-memory backend.
func TestRemoteRoundCancellationPrefix(t *testing.T) {
	b := newRoundBed(t)
	srv := b.daemon(t, b.hosts)
	rh := analyzer.NewRemoteHosts(roots(b.hosts, srv.URL), nil)
	defer rh.Client().CloseIdleConnections()

	n := len(b.hosts)
	for k := 0; k <= n; k++ {
		var remoteCtxs []*countdownCtx
		newCtx := func(log *[]*countdownCtx) func() context.Context {
			return func() context.Context {
				c := &countdownCtx{Context: context.Background(), remaining: k}
				*log = append(*log, c)
				return c
			}
		}
		var memCtxs []*countdownCtx
		want, wantN := b.rounds(t, newCtx(&memCtxs), b.mem, b.hosts)
		got, gotN := b.rounds(t, newCtx(&remoteCtxs), rh, b.hosts)
		for kind := range got {
			if gotN[kind] != k || wantN[kind] != k {
				t.Fatalf("k=%d round %d: dispatched remote %d memory %d", k, kind, gotN[kind], wantN[kind])
			}
			if asJSON(t, got[kind]) != asJSON(t, want[kind]) {
				t.Fatalf("k=%d round %d: answers diverge\nremote %s\nmemory %s", k, kind, asJSON(t, got[kind]), asJSON(t, want[kind]))
			}
			if calls, wantCalls := remoteCtxs[kind].calls, min(k+1, n); calls != wantCalls {
				t.Fatalf("k=%d round %d: %d ctx checks, want %d", k, kind, calls, wantCalls)
			}
		}
	}
}

// roots maps every host to one daemon root.
func roots(hosts []netsim.IPv4, root string) map[netsim.IPv4]string {
	m := make(map[netsim.IPv4]string, len(hosts))
	for _, ip := range hosts {
		m[ip] = root
	}
	return m
}
