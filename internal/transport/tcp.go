package transport

import (
	"switchpointer/internal/eventq"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

// TCPConfig describes one simulated TCP flow. The model is Reno-style: slow
// start, additive-increase congestion avoidance, triple-duplicate-ACK fast
// retransmit with window halving, and exponential-backoff retransmission
// timeouts. It is byte-accurate enough that the paper's contention phenomena
// (throughput collapse under priority starvation, gradual degradation across
// red lights, cascade-induced slowdown, TCP timeouts) emerge from queueing
// rather than from scripted behaviour.
type TCPConfig struct {
	Flow     netsim.FlowKey
	Priority uint8
	Start    simtime.Time
	// Duration bounds the sending period for time-driven flows (0 = run to
	// completion of TotalBytes).
	Duration simtime.Time
	// TotalBytes bounds the transfer size (0 = unbounded while Duration
	// lasts). The cascades experiment sends 2 MB (§2.3).
	TotalBytes int64

	MSS          int          // payload bytes per segment (default 1460)
	HeaderBytes  int          // IP+TCP header overhead (default 40)
	InitCwndPkts int          // initial window in segments (default 10)
	MaxCwndBytes int64        // cap on cwnd ≈ receive window (default 300 KB)
	RTOMin       simtime.Time // minimum retransmission timeout (default 200 ms, Linux-like)
}

func (c TCPConfig) withDefaults() TCPConfig {
	if c.MSS == 0 {
		c.MSS = 1460
	}
	if c.HeaderBytes == 0 {
		c.HeaderBytes = 40
	}
	if c.InitCwndPkts == 0 {
		c.InitCwndPkts = 10
	}
	if c.MaxCwndBytes == 0 {
		c.MaxCwndBytes = 300 << 10
	}
	if c.RTOMin == 0 {
		c.RTOMin = 200 * simtime.Millisecond
	}
	if c.Flow.Proto == 0 {
		c.Flow.Proto = netsim.ProtoTCP
	}
	return c
}

// TCPSender is the sending side of a simulated TCP connection.
type TCPSender struct {
	net  *netsim.Network
	host *netsim.Host
	cfg  TCPConfig

	nextSeq  uint32 // next new byte to send
	sndUna   uint32 // lowest unacknowledged byte
	cwnd     float64
	ssthresh float64
	dupAcks  int

	// Loss-recovery state (NewReno-flavoured).
	state      recoveryState
	recoverSeq uint32 // highest sequence outstanding when loss was detected
	resendNext uint32 // go-back-N cursor after a timeout

	srtt, rttvar simtime.Time
	hasRTT       bool
	rto          simtime.Time
	rtoTimer     eventq.Timer            // generation-counted: safe to Stop after fire
	rtoFn        eventq.Func             // s.onRTO, bound once so re-arming allocates nothing
	sentAt       map[uint32]simtime.Time // segment start → send time (for RTT; cleared on retransmit)

	finished bool
	stopped  bool

	// Stats.
	Timeouts        int
	TimeoutTimes    []simtime.Time
	FastRetransmits int
	SentSegments    uint64
	SentBytes       uint64
	RetransSegments uint64
	CompletedAt     simtime.Time // when TotalBytes was fully acked (0 if not)
}

// recoveryState tracks which loss-recovery regime the sender is in.
type recoveryState uint8

const (
	stateOpen recoveryState = iota // normal transmission
	stateFast                      // fast recovery after triple dup-ACK
	stateRTO                       // go-back-N retransmission after a timeout
)

// TCPReceiver is the receiving side: it delivers cumulative ACKs and counts
// in-order goodput.
type TCPReceiver struct {
	net    *netsim.Network
	host   *netsim.Host
	flow   netsim.FlowKey // forward direction (sender→receiver)
	prio   uint8
	hdr    int
	cumAck uint32
	ooo    map[uint32]uint32 // out-of-order segments: start → end

	GoodputBytes uint64
	AcksSent     uint64
}

// StartTCP wires a TCP connection between two hosts and schedules its start.
// The returned sender/receiver expose statistics; the receiver has been
// registered on dst's receive path.
func StartTCP(net *netsim.Network, src, dst *netsim.Host, cfg TCPConfig) (*TCPSender, *TCPReceiver) {
	cfg = cfg.withDefaults()
	if cfg.Flow.Src == 0 {
		cfg.Flow.Src = src.IP()
	}
	if cfg.Flow.Dst == 0 {
		cfg.Flow.Dst = dst.IP()
	}
	s := &TCPSender{
		net:      net,
		host:     src,
		cfg:      cfg,
		cwnd:     float64(cfg.InitCwndPkts),
		ssthresh: 1 << 20, // effectively unbounded until first loss
		rto:      cfg.RTOMin,
		sentAt:   make(map[uint32]simtime.Time),
	}
	s.rtoFn = s.onRTO
	r := &TCPReceiver{
		net:  net,
		host: dst,
		flow: cfg.Flow,
		prio: cfg.Priority,
		hdr:  cfg.HeaderBytes,
		ooo:  make(map[uint32]uint32),
	}
	// Receiver consumes data segments of this flow.
	dst.OnReceive(func(p *netsim.Packet, now simtime.Time) {
		if p.Flow == cfg.Flow && p.Flags&netsim.FlagACK == 0 {
			r.onData(p, now)
		}
	})
	// Sender consumes ACKs of the reverse flow.
	rev := cfg.Flow.Reverse()
	src.OnReceive(func(p *netsim.Packet, now simtime.Time) {
		if p.Flow == rev && p.Flags&netsim.FlagACK != 0 {
			s.onAck(p, now)
		}
	})
	net.Engine.At(cfg.Start, func() { s.trySend() })
	if cfg.Duration > 0 {
		net.Engine.At(cfg.Start+cfg.Duration, func() { s.stopped = true })
	}
	return s, r
}

// Cwnd returns the current congestion window in segments.
func (s *TCPSender) Cwnd() float64 { return s.cwnd }

// Done reports whether a bounded transfer has been fully acknowledged.
func (s *TCPSender) Done() bool { return s.finished }

// inflightBytes returns unacknowledged bytes.
func (s *TCPSender) inflightBytes() int64 { return int64(s.nextSeq - s.sndUna) }

// cwndBytes returns the effective window in bytes.
func (s *TCPSender) cwndBytes() int64 {
	w := int64(s.cwnd * float64(s.cfg.MSS))
	if w > s.cfg.MaxCwndBytes {
		w = s.cfg.MaxCwndBytes
	}
	if w < int64(s.cfg.MSS) {
		w = int64(s.cfg.MSS)
	}
	return w
}

// pipeBytes estimates the bytes currently in flight. After a timeout the
// whole outstanding window is presumed lost, so only data re-sent since the
// timeout counts (go-back-N).
func (s *TCPSender) pipeBytes() int64 {
	if s.state == stateRTO {
		return int64(s.resendNext - s.sndUna)
	}
	return s.inflightBytes()
}

// trySend emits as many segments as the window allows: go-back-N
// retransmissions first when recovering from a timeout, then new data.
func (s *TCPSender) trySend() {
	if s.finished || s.stopped {
		return
	}
	now := s.net.Now()
	for s.pipeBytes()+int64(s.cfg.MSS) <= s.cwndBytes() {
		if s.state == stateRTO {
			if s.resendNext < s.nextSeq {
				s.emit(s.resendNext, now, true)
				s.resendNext += uint32(s.cfg.MSS)
				continue
			}
			// Everything outstanding has been re-sent; inflight accounting
			// is consistent again.
			s.state = stateOpen
		}
		if s.cfg.TotalBytes > 0 && int64(s.nextSeq) >= s.cfg.TotalBytes {
			return // all data sent; waiting for acks
		}
		seg := s.nextSeq
		s.emit(seg, now, false)
		s.nextSeq += uint32(s.cfg.MSS)
	}
}

func (s *TCPSender) emit(seq uint32, now simtime.Time, retrans bool) {
	p := netsim.AllocPacket()
	p.ID = s.net.AllocPacketID()
	p.Flow = s.cfg.Flow
	p.Priority = s.cfg.Priority
	p.Size = s.cfg.MSS + s.cfg.HeaderBytes
	p.Payload = s.cfg.MSS
	p.Seq = seq
	p.SentAt = now
	s.SentSegments++
	s.SentBytes += uint64(p.Size)
	if retrans {
		s.RetransSegments++
		delete(s.sentAt, seq) // Karn's algorithm: no RTT sample from retransmits
	} else {
		s.sentAt[seq] = now
	}
	s.host.Send(p)
	s.armRTO(now)
}

func (s *TCPSender) armRTO(now simtime.Time) {
	s.rtoTimer.Stop()
	s.rtoTimer = s.net.Engine.At(now+s.rto, s.rtoFn)
}

func (s *TCPSender) disarmRTO() {
	s.rtoTimer.Stop()
	s.rtoTimer = eventq.Timer{}
}

// onRTO fires when the retransmission timer expires: classic Reno timeout.
func (s *TCPSender) onRTO() {
	if s.finished || s.inflightBytes() == 0 {
		return
	}
	if s.stopped {
		// The sending application has gone away (duration-bounded flow);
		// do not retransmit forever.
		s.disarmRTO()
		return
	}
	now := s.net.Now()
	s.Timeouts++
	s.TimeoutTimes = append(s.TimeoutTimes, now)
	s.ssthresh = s.cwnd / 2
	if s.ssthresh < 2 {
		s.ssthresh = 2
	}
	s.cwnd = 1
	s.dupAcks = 0
	s.rto *= 2
	if max := 4 * simtime.Second; s.rto > max {
		s.rto = max
	}
	// Enter go-back-N: everything outstanding is presumed lost.
	s.state = stateRTO
	s.recoverSeq = s.nextSeq
	s.resendNext = s.sndUna
	s.emit(s.resendNext, now, true)
	s.resendNext += uint32(s.cfg.MSS)
}

// onAck processes a cumulative acknowledgment.
func (s *TCPSender) onAck(p *netsim.Packet, now simtime.Time) {
	if s.finished {
		return
	}
	ack := p.Ack
	if ack > s.sndUna {
		// New data acknowledged.
		if t0, ok := s.sentAt[s.sndUna]; ok {
			s.updateRTT(now - t0)
		}
		for seq := s.sndUna; seq < ack; seq += uint32(s.cfg.MSS) {
			delete(s.sentAt, seq)
		}
		ackedSegs := float64(ack-s.sndUna) / float64(s.cfg.MSS)
		s.sndUna = ack
		if s.state == stateRTO && s.resendNext < s.sndUna {
			s.resendNext = s.sndUna // holes filled by acks need no resend
		}
		s.dupAcks = 0
		switch {
		case s.state == stateFast && ack >= s.recoverSeq:
			// Full acknowledgment: leave fast recovery, deflate.
			s.state = stateOpen
			s.cwnd = s.ssthresh
		case s.state == stateFast:
			// NewReno partial ack: retransmit the next hole immediately.
			s.emit(s.sndUna, now, true)
		case s.state == stateRTO && ack >= s.recoverSeq:
			s.state = stateOpen
		}
		if s.state == stateOpen || s.state == stateRTO {
			if s.cwnd < s.ssthresh {
				s.cwnd += ackedSegs // slow start
			} else {
				s.cwnd += ackedSegs / s.cwnd // congestion avoidance
			}
		}
		if s.cfg.TotalBytes > 0 && int64(s.sndUna) >= s.cfg.TotalBytes {
			s.finished = true
			s.CompletedAt = now
			s.disarmRTO()
			return
		}
		if s.inflightBytes() == 0 {
			s.disarmRTO()
		} else {
			s.armRTO(now)
		}
		s.trySend()
		return
	}
	// Duplicate ACK.
	if s.inflightBytes() == 0 {
		return
	}
	s.dupAcks++
	switch {
	case s.dupAcks == 3 && s.state == stateOpen:
		// Fast retransmit + window halving.
		s.FastRetransmits++
		s.ssthresh = s.cwnd / 2
		if s.ssthresh < 2 {
			s.ssthresh = 2
		}
		s.cwnd = s.ssthresh
		s.state = stateFast
		s.recoverSeq = s.nextSeq
		s.emit(s.sndUna, now, true)
	case s.state == stateFast:
		// Window inflation keeps the ACK clock running during recovery.
		s.cwnd++
		s.trySend()
	}
}

func (s *TCPSender) updateRTT(sample simtime.Time) {
	if !s.hasRTT {
		s.srtt = sample
		s.rttvar = sample / 2
		s.hasRTT = true
	} else {
		diff := s.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + sample) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < s.cfg.RTOMin {
		s.rto = s.cfg.RTOMin
	}
}

// onData handles a data segment at the receiver: cumulative ACK with
// out-of-order buffering.
func (r *TCPReceiver) onData(p *netsim.Packet, now simtime.Time) {
	start := p.Seq
	end := p.Seq + uint32(p.Payload)
	if end > r.cumAck { // ignore stale duplicates below cumAck
		if start <= r.cumAck {
			r.cumAck = end
			// Absorb any buffered segments that are now in order.
			for {
				e, ok := r.ooo[r.cumAck]
				if !ok {
					break
				}
				delete(r.ooo, r.cumAck)
				r.cumAck = e
			}
		} else {
			r.ooo[start] = end
		}
	}
	r.GoodputBytes = uint64(r.cumAck)
	ack := netsim.AllocPacket()
	ack.ID = r.net.AllocPacketID()
	ack.Flow = r.flow.Reverse()
	ack.Priority = r.prio
	ack.Size = r.hdr
	ack.Flags = netsim.FlagACK
	ack.Ack = r.cumAck
	ack.SentAt = now
	r.AcksSent++
	r.host.Send(ack)
}

// CumAck returns the receiver's cumulative acknowledgment point.
func (r *TCPReceiver) CumAck() uint32 { return r.cumAck }
