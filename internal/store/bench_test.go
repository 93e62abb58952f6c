package store

import (
	"bytes"
	"fmt"
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

// segmentFixture encodes n deterministic three-hop records as one segment.
func segmentFixture(b *testing.B, n int) []byte {
	recs := make([]*flowrec.Record, n)
	for i := range recs {
		rec := flowrec.New(netsim.FlowKey{Src: netsim.IP(10, 0, byte(i>>8), byte(i)), Dst: netsim.IP(10, 1, 0, 1),
			SrcPort: uint16(i), DstPort: 80, Proto: netsim.ProtoTCP})
		rec.Path = []netsim.NodeID{3, netsim.NodeID(7 + i%4), 12}
		rec.Epochs = []simtime.EpochRange{{Lo: 400, Hi: 402}, {Lo: 401, Hi: 403}, {Lo: 401, Hi: 404}}
		rec.TagIdx, rec.Bytes, rec.Pkts = 1, 96000, 64
		for e := simtime.Epoch(400); e < 404; e++ {
			rec.EpochBytes[e] = 24000
		}
		recs[i] = rec
	}
	var buf bytes.Buffer
	if err := EncodeSegment(&buf, recs); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

var segmentSink []*flowrec.Record

// BenchmarkDecodeSegment is the record-store rung of the layer ladder: one
// cold segment decoded, at a small and a large record count. records/op is
// the count decoded; the gap in ns per record between the two sizes is the
// fixed per-segment cost (gob compiles its decoder for every stream).
func BenchmarkDecodeSegment(b *testing.B) {
	for _, n := range []int{16, 256} {
		b.Run(fmt.Sprintf("records-%d", n), func(b *testing.B) {
			seg := segmentFixture(b, n)
			b.ReportAllocs()
			for b.Loop() {
				recs, err := DecodeSegment(bytes.NewReader(seg))
				if err != nil {
					b.Fatal(err)
				}
				segmentSink = recs
			}
			b.ReportMetric(float64(n), "records/op")
		})
	}
}
