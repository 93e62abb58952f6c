package rpc

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"switchpointer/internal/header"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/topo"
	"switchpointer/internal/trace"
	"switchpointer/internal/transport"
)

// FuzzHostRounds posts arbitrary bodies to the round endpoints of a small
// traced host daemon whose one receiving host holds a record: the handler
// never panics, answers only 200, 400, 405 or 413, and a 200 answers a
// body that decodes as a round request with one answer per requested host.
func FuzzHostRounds(f *testing.F) {
	net := netsim.New()
	tp := topo.Chain(net, []int{1, 0, 1}, topo.Config{})
	alpha := 10 * simtime.Millisecond
	dec := &header.Decoder{Topo: tp, Mode: header.ModeCommodity,
		Params: header.Params{Alpha: alpha, Eps: alpha, Delta: 2 * alpha}}
	src, dst := tp.Hosts()[0], tp.Hosts()[1]
	agents := map[netsim.IPv4]*hostagent.Agent{dst.IP(): hostagent.New(net, dst, dec, hostagent.Config{})}
	transport.StartUDP(net, src, transport.UDPConfig{
		Flow:    netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 7, DstPort: 8, Proto: netsim.ProtoUDP},
		RateBps: 200_000_000, Duration: 5 * simtime.Millisecond})
	net.RunUntil(10 * simtime.Millisecond)
	h := NewHostRoundHandler(agents, trace.NewFlightRecorder("host", 4))
	kinds := []string{"headers", "topk", "flowsizes"} // decodeAs kinds 0, 1, 2

	sw := tp.Switches()[0].NodeID()
	for kind := range kinds {
		for _, req := range []RoundRequest{
			{Hosts: []netsim.IPv4{dst.IP()}, Switch: sw, K: 10},
			{Hosts: []netsim.IPv4{src.IP(), dst.IP(), dst.IP()}, Switch: sw},
			{Hosts: []netsim.IPv4{dst.IP()}, Queries: []hostagent.HeadersQuery{
				{Switch: sw, Epochs: simtime.EpochRange{Lo: 0, Hi: 2}},
				{Switch: sw, Epochs: simtime.EpochRange{Hi: 1 << 40}, Flows: []netsim.FlowKey{{Src: 1}}},
			}},
		} {
			f.Add(uint8(kind), req.appendWire(nil))
		}
	}
	f.Add(uint8(1), []byte(nil))
	f.Add(uint8(0), []byte(`{"hosts":null,"queries":[{}]}`))
	f.Add(uint8(2), (&RoundRequest{Hosts: []netsim.IPv4{1, 2}, K: -1}).appendWire(nil))

	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		k := int(kind) % len(kinds)
		r := httptest.NewRequest(http.MethodPost, RoundsPath+kinds[k], bytes.NewReader(body))
		r.Header.Set(trace.Header, "sp-fuzz;sp-fuzz.p1;1000")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		switch w.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusMethodNotAllowed, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("status %d for %q", w.Code, body)
		}
		hosts, _, err := decodeAs(3, body)
		if err != nil {
			t.Fatalf("200 for a body that does not decode: %v", err)
		}
		n, _, err := decodeAs(k, w.Body.Bytes())
		if err != nil {
			t.Fatalf("undecodable 200 response: %v", err)
		}
		if n != hosts {
			t.Fatalf("%d answers for %d hosts", n, hosts)
		}
	})
}
