package rpc

import (
	"errors"
	"fmt"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/topo"
	"switchpointer/internal/wire"
)

// The binary body of the host round endpoints (RoundsPath+{headers,topk,
// flowsizes}), in both directions. A body is a version byte followed by
// one value:
//
//	request:  hosts (count, 4-byte IPv4 each), switch, k, queries
//	query:    switch, epochs.lo, epochs.hi, flows (count, flow keys)
//	response: answers (count, one answer per host)
//	headers answer:   records (count; each 0 for nil or 1 + flowrec wire
//	                  form), cold_segments, cold_records, cold_returned,
//	                  cold_skipped_by_index, tiered_segments
//	topk answer:      flows (count; each flow key + bytes)
//	flowsizes answer: flows (count; each flow key + bytes + link)
//
// Counts are nil-marked uvarints (wire.AppendCount), so a null answer — a
// host the daemon does not serve — stays distinct from an empty one.
// Signed integers are zigzag varints, unsigned ones uvarints, and flow keys
// are fixed width (flowrec.AppendFlowKey). Decoding checks every count
// against the bytes left before allocating and refuses trailing bytes, so
// an accepted body re-encodes to exactly itself.

// errRecordPresence refuses a record marker other than 0 (nil) or 1.
var errRecordPresence = errors.New("rpc: record presence byte not 0 or 1")

// roundVersion leads every round body; a body with another first byte
// (a JSON one included) is refused.
const roundVersion = 1

// Minimum wire sizes of the round's repeated elements, which bound each
// count a decoder accepts by the bytes that remain.
const (
	minQuerySize         = 4 // switch, lo, hi, flows count
	minHeadersAnswerSize = 6 // records count + five counters
	minFlowBytesSize     = flowrec.FlowKeySize + 1
	minFlowSizeSize      = flowrec.FlowKeySize + 2
)

// appendWire appends the request's versioned binary body.
func (req *RoundRequest) appendWire(b []byte) []byte {
	b = append(b, roundVersion)
	b = wire.AppendCount(b, len(req.Hosts), req.Hosts == nil)
	for _, ip := range req.Hosts {
		b = append(b, byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
	}
	b = wire.AppendVarint(b, int64(req.Switch))
	b = wire.AppendVarint(b, int64(req.K))
	b = wire.AppendCount(b, len(req.Queries), req.Queries == nil)
	for _, q := range req.Queries {
		b = wire.AppendVarint(b, int64(q.Switch))
		b = wire.AppendVarint(b, int64(q.Epochs.Lo))
		b = wire.AppendVarint(b, int64(q.Epochs.Hi))
		b = wire.AppendCount(b, len(q.Flows), q.Flows == nil)
		for _, f := range q.Flows {
			b = flowrec.AppendFlowKey(b, f)
		}
	}
	return b
}

// readVersion consumes the leading version byte.
func readVersion(r *wire.Reader) {
	if v := r.Byte(); r.Err() == nil && v != roundVersion {
		r.Fail(fmt.Errorf("rpc: round body version %d, want %d", v, roundVersion))
	}
}

// decodeRoundRequest decodes a request body written by appendWire.
func decodeRoundRequest(body []byte) (RoundRequest, error) {
	r := wire.NewReader(body)
	readVersion(&r)
	var req RoundRequest
	if n, isNil := r.Count(4); !isNil {
		req.Hosts = make([]netsim.IPv4, n)
		for i := range req.Hosts {
			req.Hosts[i] = netsim.IPv4(r.Uint32())
		}
	}
	req.Switch = netsim.NodeID(r.Int32())
	req.K = r.Int()
	if n, isNil := r.Count(minQuerySize); !isNil {
		req.Queries = make([]hostagent.HeadersQuery, n)
		for i := range req.Queries {
			q := &req.Queries[i]
			q.Switch = netsim.NodeID(r.Int32())
			q.Epochs = simtime.EpochRange{Lo: simtime.Epoch(r.Varint()), Hi: simtime.Epoch(r.Varint())}
			if m, isNil := r.Count(flowrec.FlowKeySize); !isNil {
				q.Flows = make([]netsim.FlowKey, m)
				for j := range q.Flows {
					q.Flows[j] = flowrec.ReadFlowKey(&r)
				}
			}
		}
	}
	if err := r.Done(); err != nil {
		return RoundRequest{}, fmt.Errorf("rpc: round request: %w", err)
	}
	return req, nil
}

// appendResponse appends the versioned binary body of a round's answers.
func (k roundKind[T]) appendResponse(b []byte, resp RoundResponse[T]) []byte {
	b = append(b, roundVersion)
	b = wire.AppendCount(b, len(resp.Answers), resp.Answers == nil)
	for _, a := range resp.Answers {
		b = k.appendAnswer(b, a)
	}
	return b
}

// decodeResponse decodes a response body written by appendResponse. Every
// answer starts with a count, so each takes at least one byte.
func (k roundKind[T]) decodeResponse(body []byte) (RoundResponse[T], error) {
	r := wire.NewReader(body)
	readVersion(&r)
	var resp RoundResponse[T]
	if n, isNil := r.Count(1); !isNil {
		resp.Answers = make([]T, n)
		for i := range resp.Answers {
			resp.Answers[i] = k.readAnswer(&r)
		}
	}
	if err := r.Done(); err != nil {
		return RoundResponse[T]{}, fmt.Errorf("rpc: %s round response: %w", k.name, err)
	}
	return resp, nil
}

func appendHeadersAnswers(b []byte, answers []hostagent.HeadersAnswer) []byte {
	b = wire.AppendCount(b, len(answers), answers == nil)
	for _, a := range answers {
		b = wire.AppendCount(b, len(a.Records), a.Records == nil)
		for _, rec := range a.Records {
			if rec == nil {
				b = append(b, 0)
				continue
			}
			b = flowrec.AppendWire(append(b, 1), rec)
		}
		b = wire.AppendVarint(b, int64(a.ColdSegments))
		b = wire.AppendVarint(b, int64(a.ColdRecords))
		b = wire.AppendVarint(b, int64(a.ColdReturned))
		b = wire.AppendVarint(b, int64(a.ColdSkippedByIndex))
		b = wire.AppendVarint(b, int64(a.TieredSegments))
	}
	return b
}

func readHeadersAnswers(r *wire.Reader) []hostagent.HeadersAnswer {
	n, isNil := r.Count(minHeadersAnswerSize)
	if isNil {
		return nil
	}
	answers := make([]hostagent.HeadersAnswer, n)
	for i := range answers {
		a := &answers[i]
		if m, isNil := r.Count(1); !isNil {
			a.Records = make([]*flowrec.Record, m)
			for j := range a.Records {
				switch r.Byte() {
				case 0:
				case 1:
					a.Records[j] = flowrec.ReadWire(r)
				default:
					r.Fail(errRecordPresence)
				}
			}
		}
		a.ColdSegments = r.Int()
		a.ColdRecords = r.Int()
		a.ColdReturned = r.Int()
		a.ColdSkippedByIndex = r.Int()
		a.TieredSegments = r.Int()
	}
	return answers
}

func appendFlowBytes(b []byte, flows []hostagent.FlowBytes) []byte {
	b = wire.AppendCount(b, len(flows), flows == nil)
	for _, f := range flows {
		b = flowrec.AppendFlowKey(b, f.Flow)
		b = wire.AppendUvarint(b, f.Bytes)
	}
	return b
}

func readFlowBytes(r *wire.Reader) []hostagent.FlowBytes {
	n, isNil := r.Count(minFlowBytesSize)
	if isNil {
		return nil
	}
	flows := make([]hostagent.FlowBytes, n)
	for i := range flows {
		flows[i] = hostagent.FlowBytes{Flow: flowrec.ReadFlowKey(r), Bytes: r.Uvarint()}
	}
	return flows
}

func appendFlowSizes(b []byte, flows []hostagent.FlowSize) []byte {
	b = wire.AppendCount(b, len(flows), flows == nil)
	for _, f := range flows {
		b = flowrec.AppendFlowKey(b, f.Flow)
		b = wire.AppendUvarint(b, f.Bytes)
		b = wire.AppendUvarint(b, uint64(f.Link))
	}
	return b
}

func readFlowSizes(r *wire.Reader) []hostagent.FlowSize {
	n, isNil := r.Count(minFlowSizeSize)
	if isNil {
		return nil
	}
	flows := make([]hostagent.FlowSize, n)
	for i := range flows {
		flows[i] = hostagent.FlowSize{Flow: flowrec.ReadFlowKey(r), Bytes: r.Uvarint(), Link: topo.LinkID(r.Uvarint32())}
	}
	return flows
}
