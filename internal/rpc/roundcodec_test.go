package rpc

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/topo"
)

// gen draws round values that reach every shape the codec distinguishes:
// nil vs empty vs filled slices and maps at every level, nil records,
// negative and extreme integers.
type gen struct{ *rand.Rand }

func (g gen) shape() int { return g.Intn(3) } // 0 nil, 1 empty, 2 filled

func (g gen) int64() int64 {
	switch g.Intn(4) {
	case 0:
		return 0
	case 1:
		return math.MinInt64 + g.Int63n(3)
	case 2:
		return math.MaxInt64 - g.Int63n(3)
	default:
		return g.Int63n(1<<20) - 1<<19
	}
}

func (g gen) uint64() uint64 {
	if g.Intn(4) == 0 {
		return math.MaxUint64 - uint64(g.Intn(3))
	}
	return uint64(g.Int63n(1 << 40))
}

func (g gen) flowKey() netsim.FlowKey {
	return netsim.FlowKey{Src: netsim.IPv4(g.Uint32()), Dst: netsim.IPv4(g.Uint32()),
		SrcPort: uint16(g.Uint32()), DstPort: uint16(g.Uint32()), Proto: netsim.Protocol(g.Uint32())}
}

func (g gen) record() *flowrec.Record {
	if g.Intn(8) == 0 {
		return nil
	}
	rec := &flowrec.Record{Flow: g.flowKey(), Priority: uint8(g.Uint32()), TagIdx: int(g.int64()),
		TagLink: topo.LinkID(g.Uint32()), Bytes: g.uint64(), Pkts: g.uint64(),
		FirstSeen: simtime.Time(g.int64()), LastSeen: simtime.Time(g.int64())}
	if s := g.shape(); s > 0 {
		rec.Path = make([]netsim.NodeID, (s-1)*(1+g.Intn(5)))
		for i := range rec.Path {
			rec.Path[i] = netsim.NodeID(int32(g.Uint32()))
		}
	}
	if s := g.shape(); s > 0 {
		rec.Epochs = make([]simtime.EpochRange, (s-1)*(1+g.Intn(5)))
		for i := range rec.Epochs {
			rec.Epochs[i] = simtime.EpochRange{Lo: simtime.Epoch(g.int64()), Hi: simtime.Epoch(g.int64())}
		}
	}
	if s := g.shape(); s > 0 {
		rec.EpochBytes = map[simtime.Epoch]uint64{}
		for i := (s - 1) * (1 + g.Intn(6)); i > 0; i-- {
			rec.EpochBytes[simtime.Epoch(g.int64())] = g.uint64()
		}
	}
	return rec
}

func (g gen) request() RoundRequest {
	req := RoundRequest{Switch: netsim.NodeID(int32(g.Uint32())), K: int(g.int64())}
	if s := g.shape(); s > 0 {
		req.Hosts = make([]netsim.IPv4, (s-1)*(1+g.Intn(6)))
		for i := range req.Hosts {
			req.Hosts[i] = netsim.IPv4(g.Uint32())
		}
	}
	if s := g.shape(); s > 0 {
		req.Queries = make([]hostagent.HeadersQuery, (s-1)*(1+g.Intn(3)))
		for i := range req.Queries {
			q := &req.Queries[i]
			q.Switch = netsim.NodeID(int32(g.Uint32()))
			q.Epochs = simtime.EpochRange{Lo: simtime.Epoch(g.int64()), Hi: simtime.Epoch(g.int64())}
			if s := g.shape(); s > 0 {
				q.Flows = make([]netsim.FlowKey, (s-1)*(1+g.Intn(3)))
				for j := range q.Flows {
					q.Flows[j] = g.flowKey()
				}
			}
		}
	}
	return req
}

// answers draws a round response whose host answers come from one.
func answers[T any](g gen, one func(gen) T) RoundResponse[T] {
	var resp RoundResponse[T]
	if s := g.shape(); s > 0 {
		resp.Answers = make([]T, (s-1)*(1+g.Intn(5)))
		for i := range resp.Answers {
			resp.Answers[i] = one(g)
		}
	}
	return resp
}

// list draws a nil, empty or filled slice of elem.
func list[T any](g gen, elem func(gen) T) []T {
	s := g.shape()
	if s == 0 {
		return nil
	}
	out := make([]T, (s-1)*(1+g.Intn(4)))
	for i := range out {
		out[i] = elem(g)
	}
	return out
}

func (g gen) headers() RoundResponse[[]hostagent.HeadersAnswer] {
	return answers(g, func(g gen) []hostagent.HeadersAnswer {
		return list(g, func(g gen) hostagent.HeadersAnswer {
			return hostagent.HeadersAnswer{
				Records:      list(g, gen.record),
				ColdSegments: int(g.int64()), ColdRecords: int(g.int64()), ColdReturned: int(g.int64()),
				ColdSkippedByIndex: int(g.int64()), TieredSegments: int(g.int64()),
			}
		})
	})
}

func (g gen) topk() RoundResponse[[]hostagent.FlowBytes] {
	return answers(g, func(g gen) []hostagent.FlowBytes {
		return list(g, func(g gen) hostagent.FlowBytes { return hostagent.FlowBytes{Flow: g.flowKey(), Bytes: g.uint64()} })
	})
}

func (g gen) flowSizes() RoundResponse[[]hostagent.FlowSize] {
	return answers(g, func(g gen) []hostagent.FlowSize {
		return list(g, func(g gen) hostagent.FlowSize {
			return hostagent.FlowSize{Flow: g.flowKey(), Bytes: g.uint64(), Link: topo.LinkID(g.Uint32())}
		})
	})
}

// viaJSON is the reference the codec must agree with: v through a JSON
// encode/decode, the round's wire form before the binary codec.
func viaJSON[V any](t *testing.T, v V) V {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out V
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkResponse asserts one response survives the binary codec exactly as
// it survives JSON, and that its encoding is a fixed point.
func checkResponse[T any](t *testing.T, k roundKind[T], resp RoundResponse[T]) {
	t.Helper()
	body := k.appendResponse(nil, resp)
	got, err := k.decodeResponse(body)
	if err != nil {
		t.Fatalf("%s: %v", k.name, err)
	}
	if want := viaJSON(t, resp); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: binary round trip\n%#v\n!= JSON round trip\n%#v", k.name, got, want)
	}
	if again := k.appendResponse(nil, got); !bytes.Equal(again, body) {
		t.Fatalf("%s: re-encoding differs", k.name)
	}
}

// TestRoundCodecMatchesJSON is the codec's oracle: for seeded requests and
// answers of all three kinds, a binary round trip yields values
// reflect.DeepEqual to a JSON round trip of the same values — nil and empty
// answers, record fields and cold counters included.
func TestRoundCodecMatchesJSON(t *testing.T) {
	g := gen{rand.New(rand.NewSource(14))}
	for i := 0; i < 300; i++ {
		req := g.request()
		body := req.appendWire(nil)
		got, err := decodeRoundRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		if want := viaJSON(t, req); !reflect.DeepEqual(got, want) {
			t.Fatalf("request: binary round trip\n%#v\n!= JSON round trip\n%#v", got, want)
		}
		if again := got.appendWire(nil); !bytes.Equal(again, body) {
			t.Fatal("request: re-encoding differs")
		}
		checkResponse(t, headersKind, g.headers())
		checkResponse(t, topkKind, g.topk())
		checkResponse(t, flowSizesKind, g.flowSizes())
	}
}

// decodeAs decodes body as round kind kind (0 headers, 1 topk, 2 flowsizes
// answers, 3 a request). It returns the number of answers (of hosts, for a
// request) and a function re-encoding what it decoded.
func decodeAs(kind int, body []byte) (n int, reencode func() []byte, err error) {
	switch kind {
	case 0:
		resp, err := headersKind.decodeResponse(body)
		return len(resp.Answers), func() []byte { return headersKind.appendResponse(nil, resp) }, err
	case 1:
		resp, err := topkKind.decodeResponse(body)
		return len(resp.Answers), func() []byte { return topkKind.appendResponse(nil, resp) }, err
	case 2:
		resp, err := flowSizesKind.decodeResponse(body)
		return len(resp.Answers), func() []byte { return flowSizesKind.appendResponse(nil, resp) }, err
	default:
		req, err := decodeRoundRequest(body)
		return len(req.Hosts), func() []byte { return req.appendWire(nil) }, err
	}
}

// FuzzRoundAnswers decodes arbitrary bytes as each answer kind and as a
// request: a decoder never panics, allocates at most a small multiple of
// the input's length (every count is checked against the bytes left), and
// every accepted input re-encodes to exactly itself.
func FuzzRoundAnswers(f *testing.F) {
	g := gen{rand.New(rand.NewSource(1))}
	for i := 0; i < 4; i++ {
		h, k, s, req := g.headers(), g.topk(), g.flowSizes(), g.request()
		f.Add(uint8(0), headersKind.appendResponse(nil, h))
		f.Add(uint8(1), topkKind.appendResponse(nil, k))
		f.Add(uint8(2), flowSizesKind.appendResponse(nil, s))
		f.Add(uint8(3), req.appendWire(nil))
	}
	f.Add(uint8(0), []byte{roundVersion, 0xff, 0xff, 0xff, 0xff, 0x0f}) // huge count
	f.Add(uint8(1), []byte{roundVersion, 0x80, 0x00})                   // non-minimal varint
	f.Add(uint8(3), []byte(`{"hosts":[1]}`))

	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		// TotalAlloc counts every goroutine's allocations, the fuzzing
		// engine's included, so the least of three decodes is the
		// decoder's own.
		var reencode func() []byte
		var err error
		alloc := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, reencode, err = decodeAs(int(kind%4), body)
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		// The worst case is a list of nil answers: a 24-byte slice header
		// per input byte.
		if bound := 32*uint64(len(body)) + 4096; alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d (bound %d)", len(body), alloc, bound)
		}
		if err == nil {
			if again := reencode(); !bytes.Equal(again, body) {
				t.Fatalf("accepted %x re-encodes to %x", body, again)
			}
		}
	})
}

// roundCodecFixtures are deterministic rounds the size of a diag-fanout
// diagnosis: 96 hosts answering 8 flows each for topk and flowsizes, and a
// headers round of 16 hosts × 2 queries × 4 three-hop records.
func roundCodecFixtures() (topk RoundResponse[[]hostagent.FlowBytes], sizes RoundResponse[[]hostagent.FlowSize], headers RoundResponse[[]hostagent.HeadersAnswer], hosts []netsim.IPv4) {
	flow := func(h, i int) netsim.FlowKey {
		return netsim.FlowKey{Src: netsim.IP(10, 0, byte(i), 1), Dst: netsim.IP(10, 1, 0, byte(h)),
			SrcPort: uint16(1000 + i), DstPort: 80, Proto: netsim.ProtoTCP}
	}
	for h := 0; h < 96; h++ {
		hosts = append(hosts, netsim.IP(10, 1, 0, byte(h)))
		var fb []hostagent.FlowBytes
		var fs []hostagent.FlowSize
		for i := 0; i < 8; i++ {
			fb = append(fb, hostagent.FlowBytes{Flow: flow(h, i), Bytes: uint64(1500 * (h + 1) * (i + 7))})
			fs = append(fs, hostagent.FlowSize{Flow: flow(h, i), Bytes: uint64(1500 * (h + 1) * (i + 7)), Link: topo.LinkID(i % 4)})
		}
		topk.Answers = append(topk.Answers, fb)
		sizes.Answers = append(sizes.Answers, fs)
	}
	for h := 0; h < 16; h++ {
		var per []hostagent.HeadersAnswer
		for q := 0; q < 2; q++ {
			var recs []*flowrec.Record
			for i := 0; i < 4; i++ {
				rec := flowrec.New(flow(h, i))
				rec.Path = []netsim.NodeID{3, netsim.NodeID(7 + q), 12}
				rec.Epochs = []simtime.EpochRange{{Lo: 400, Hi: 402}, {Lo: 401, Hi: 403}, {Lo: 401, Hi: 404}}
				rec.TagIdx, rec.TagLink, rec.Bytes, rec.Pkts = 1, topo.LinkID(i), 96000, 64
				for e := simtime.Epoch(400); e < 404; e++ {
					rec.EpochBytes[e] = 24000
				}
				rec.FirstSeen, rec.LastSeen = 4_000_000_000, 4_035_000_000
				recs = append(recs, rec)
			}
			per = append(per, hostagent.HeadersAnswer{Records: recs})
		}
		headers.Answers = append(headers.Answers, per)
	}
	return topk, sizes, headers, hosts
}

var benchSink any

// benchRound times one whole round through the codec: the request encoded
// and decoded, then the response encoded and decoded. wire-bytes/op is the
// request plus response body length, deterministic for the fixture.
func benchRound[T any](b *testing.B, k roundKind[T], req RoundRequest, resp RoundResponse[T]) {
	b.ReportAllocs()
	wireBytes := 0
	for b.Loop() {
		reqBody := req.appendWire(nil)
		if _, err := decodeRoundRequest(reqBody); err != nil {
			b.Fatal(err)
		}
		respBody := k.appendResponse(nil, resp)
		got, err := k.decodeResponse(respBody)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = got
		wireBytes = len(reqBody) + len(respBody)
	}
	b.ReportMetric(float64(wireBytes), "wire-bytes/op")
}

// BenchmarkRoundCodec is the rpc encode/decode rung of the layer ladder: a
// 96-host topk round, a 96-host flowsizes round, and a records-bearing
// headers round, each through the binary round codec in both directions.
func BenchmarkRoundCodec(b *testing.B) {
	topk, sizes, headers, hosts := roundCodecFixtures()
	b.Run("topk-96", func(b *testing.B) {
		benchRound(b, topkKind, RoundRequest{Hosts: hosts, Switch: 5, K: 10}, topk)
	})
	b.Run("flowsizes-96", func(b *testing.B) {
		benchRound(b, flowSizesKind, RoundRequest{Hosts: hosts, Switch: 5}, sizes)
	})
	b.Run("headers-16x2", func(b *testing.B) {
		qs := []hostagent.HeadersQuery{{Switch: 7, Epochs: simtime.EpochRange{Lo: 400, Hi: 404}},
			{Switch: 8, Epochs: simtime.EpochRange{Lo: 400, Hi: 404}}}
		benchRound(b, headersKind, RoundRequest{Hosts: hosts[:16], Queries: qs}, headers)
	})
}
