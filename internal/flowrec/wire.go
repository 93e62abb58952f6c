package flowrec

import (
	"errors"

	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/topo"
	"switchpointer/internal/wire"
)

// FlowKeySize is the fixed wire width of a flow key: source and
// destination IPv4, source and destination port, protocol.
const FlowKeySize = 4 + 4 + 2 + 2 + 1

// AppendFlowKey appends k in its fixed-width wire form.
func AppendFlowKey(b []byte, k netsim.FlowKey) []byte {
	return append(b,
		byte(k.Src>>24), byte(k.Src>>16), byte(k.Src>>8), byte(k.Src),
		byte(k.Dst>>24), byte(k.Dst>>16), byte(k.Dst>>8), byte(k.Dst),
		byte(k.SrcPort>>8), byte(k.SrcPort),
		byte(k.DstPort>>8), byte(k.DstPort),
		byte(k.Proto))
}

// ReadFlowKey reads a flow key written by AppendFlowKey.
func ReadFlowKey(r *wire.Reader) netsim.FlowKey {
	return netsim.FlowKey{
		Src:     netsim.IPv4(r.Uint32()),
		Dst:     netsim.IPv4(r.Uint32()),
		SrcPort: r.Uint16(),
		DstPort: r.Uint16(),
		Proto:   netsim.Protocol(r.Byte()),
	}
}

// AppendWire appends rec's binary wire form: the flow key, the priority,
// the path and its epoch ranges, the tag index and link, the byte and
// packet counts, the per-epoch byte counts in ascending epoch order (so
// the bytes are deterministic), and the first/last-seen times. Signed
// fields are zigzag varints, unsigned ones uvarints, and every slice or map
// carries a nil-marked count, so ReadWire restores nil and empty alike.
func AppendWire(b []byte, rec *Record) []byte {
	b = AppendFlowKey(b, rec.Flow)
	b = append(b, rec.Priority)
	b = wire.AppendCount(b, len(rec.Path), rec.Path == nil)
	for _, id := range rec.Path {
		b = wire.AppendVarint(b, int64(id))
	}
	b = wire.AppendCount(b, len(rec.Epochs), rec.Epochs == nil)
	for _, er := range rec.Epochs {
		b = wire.AppendVarint(b, int64(er.Lo))
		b = wire.AppendVarint(b, int64(er.Hi))
	}
	b = wire.AppendVarint(b, int64(rec.TagIdx))
	b = wire.AppendUvarint(b, uint64(rec.TagLink))
	b = wire.AppendUvarint(b, rec.Bytes)
	b = wire.AppendUvarint(b, rec.Pkts)
	b = wire.AppendCount(b, len(rec.EpochBytes), rec.EpochBytes == nil)
	if len(rec.EpochBytes) > 0 {
		for _, e := range rec.SortedEpochs() {
			b = wire.AppendVarint(b, int64(e))
			b = wire.AppendUvarint(b, rec.EpochBytes[e])
		}
	}
	b = wire.AppendVarint(b, int64(rec.FirstSeen))
	return wire.AppendVarint(b, int64(rec.LastSeen))
}

// errEpochOrder refuses per-epoch byte counts out of ascending order: the
// encoder never writes them, and accepting them would let two inputs
// decode to one record.
var errEpochOrder = errors.New("flowrec: per-epoch byte counts not in ascending epoch order")

// ReadWire reads a record written by AppendWire. On malformed input it
// returns nil and leaves the error in r.
func ReadWire(r *wire.Reader) *Record {
	rec := &Record{Flow: ReadFlowKey(r), Priority: r.Byte()}
	if n, isNil := r.Count(1); !isNil {
		rec.Path = make([]netsim.NodeID, n)
		for i := range rec.Path {
			rec.Path[i] = netsim.NodeID(r.Int32())
		}
	}
	if n, isNil := r.Count(2); !isNil {
		rec.Epochs = make([]simtime.EpochRange, n)
		for i := range rec.Epochs {
			rec.Epochs[i] = simtime.EpochRange{Lo: simtime.Epoch(r.Varint()), Hi: simtime.Epoch(r.Varint())}
		}
	}
	rec.TagIdx = r.Int()
	rec.TagLink = topo.LinkID(r.Uvarint32())
	rec.Bytes = r.Uvarint()
	rec.Pkts = r.Uvarint()
	if n, isNil := r.Count(2); !isNil {
		rec.EpochBytes = make(map[simtime.Epoch]uint64, n)
		var last simtime.Epoch
		for i := 0; i < n && r.Err() == nil; i++ {
			e := simtime.Epoch(r.Varint())
			if i > 0 && e <= last {
				r.Fail(errEpochOrder)
			}
			last = e
			rec.EpochBytes[e] = r.Uvarint()
		}
	}
	rec.FirstSeen = simtime.Time(r.Varint())
	rec.LastSeen = simtime.Time(r.Varint())
	if r.Err() != nil {
		return nil
	}
	return rec
}
