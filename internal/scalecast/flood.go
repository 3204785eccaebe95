package scalecast

import (
	"fmt"
	"time"

	"catocs/internal/multicast"
	"catocs/internal/obs"
	"catocs/internal/transport"
	"catocs/internal/vclock"
)

// Wire format. The headline property: FloodMsg control metadata is
// (origin, seq, sentAt, hops) — constant bytes regardless of group
// size, where CBCAST's DataMsg carries 8·N bytes of vector clock.

// FloodMsg is one broadcast as it floods the overlay.
type FloodMsg struct {
	Group  string
	Origin transport.NodeID
	Seq    uint64 // per-origin sequence, 1-based
	SentAt time.Duration
	// Hops counts relays; 0 means the origin's own transmission.
	Hops        int
	Payload     any
	PayloadSize int
}

// ID returns the message identity in the shared MsgID currency: the
// origin's NodeID as the sender. (Scalecast origins are transport
// addresses, not view ranks — metadata must not depend on the view.)
func (m *FloodMsg) ID() multicast.MsgID {
	return multicast.MsgID{Sender: vclock.ProcessID(m.Origin), Seq: m.Seq}
}

// TraceRef implements obs.Referable: the identity the causal trace
// recorder files the message's lifecycle under.
func (m *FloodMsg) TraceRef() obs.MsgRef {
	return obs.MsgRef{Sender: int64(m.Origin), Seq: m.Seq}
}

// LinkPacket carries a FloodMsg over one overlay link, stamped with
// the link's session and FIFO sequence number.
type LinkPacket struct {
	Group   string
	Session uint64
	Seq     uint64 // per-link FIFO sequence, 1-based within the session
	Msg     *FloodMsg
}

// TraceRef implements obs.Referable: a link packet arrives on the wire
// as the flood message it carries.
func (p *LinkPacket) TraceRef() obs.MsgRef { return p.Msg.TraceRef() }

// Forwarded implements transport.ForwardMarker: relayed copies count
// against the relaying node's forwarding census.
func (p *LinkPacket) Forwarded() bool { return p.Msg.Hops > 0 }

// LinkAck acknowledges contiguous link-sequence receipt so the peer
// can prune its retransmission log — the drain half of the hybrid
// buffer.
type LinkAck struct {
	Group   string
	Session uint64
	Cum     uint64
}

// LinkNack requests retransmission of link sequences [From, To] of a
// session.
type LinkNack struct {
	Group    string
	Session  uint64
	From, To uint64
}

// LinkHeartbeat advertises the top link sequence sent on a session, so
// a receiver discovers a lost tail with no successor to betray it —
// the same problem the CBCAST stack solves with its ack-derived
// "known" frontier.
type LinkHeartbeat struct {
	Group   string
	Session uint64
	Top     uint64
}

// link is one overlay adjacency: an independent reliable-FIFO channel
// in each direction.
type link struct {
	peer transport.NodeID

	// Out direction: my packets toward peer.
	outSession uint64
	outSeq     uint64
	outLog     map[uint64]*LinkPacket // sent, not yet cumulatively acked
	outAcked   uint64
	// barrierNeeded marks a new link whose activation handshake the
	// peer has not yet acknowledged; re-announced each heartbeat.
	barrierNeeded bool
	bornFresh     bool
	// outCut snapshots this member's delivered map at link creation:
	// the causal cut below which the link's out-stream is incomplete
	// (sent in LinkBarrier, dropped once the peer acknowledges).
	outCut map[transport.NodeID]uint64

	// In direction: peer's packets toward me.
	inSession uint64
	inNext    uint64 // next expected link seq (contiguous prefix + 1)
	inHold    map[uint64]*LinkPacket
	inTop     uint64 // highest seq known sent (packets or heartbeats)
	lastAcked uint64
	// pendingIn buffers inbound flood traffic until the causal barrier
	// activates the link (buffer.go).
	pendingIn bool
	buffered  []*FloodMsg // in link-FIFO order, awaiting activation
}

// sendOnLink transmits a flood message on one link, logging it for
// retransmission until acked.
func (m *Member) sendOnLink(l *link, fm *FloodMsg) {
	if m.closed {
		return
	}
	l.outSeq++
	pkt := &LinkPacket{Group: m.cfg.Group, Session: l.outSession, Seq: l.outSeq, Msg: fm}
	l.outLog[l.outSeq] = pkt
	m.net.Send(m.self, l.peer, pkt)
	m.armHeartbeat()
}

// onLinkPacket runs the receive side of the FIFO channel: adopt newer
// sessions, hold out-of-order packets, and surface the contiguous
// prefix to the flood layer (or the reconfiguration buffer).
func (m *Member) onLinkPacket(from transport.NodeID, pkt *LinkPacket) {
	l := m.links[from]
	if l == nil {
		// Not (or no longer) a neighbour. If the peer still considers
		// us one it will retransmit after our own re-wire creates the
		// link; dropping here is safe.
		return
	}
	if pkt.Session < l.inSession {
		return // stale session from a previous incarnation of the link
	}
	if pkt.Session > l.inSession {
		m.adoptSession(l, pkt.Session)
	}
	if pkt.Seq < l.inNext {
		m.Duplicates.Inc()
		return
	}
	if _, dup := l.inHold[pkt.Seq]; dup {
		m.Duplicates.Inc()
		return
	}
	l.inHold[pkt.Seq] = pkt
	if pkt.Seq > l.inTop {
		l.inTop = pkt.Seq
	}
	m.drainLink(l)
	if pkt.Seq >= l.inNext { // still gapped below this packet
		if m.trace != nil && !l.pendingIn {
			m.trace.Holdback(m.net.Now(), int(m.self), pkt.TraceRef(), "link fifo gap")
		}
		m.armNack()
	}
	m.updateGauge()
}

// adoptSession resets the in-direction to a newer session.
func (l *link) reset(session uint64) {
	l.inSession = session
	l.inNext = 1
	l.inHold = make(map[uint64]*LinkPacket)
	l.inTop = 0
	l.lastAcked = 0
}

func (m *Member) adoptSession(l *link, session uint64) { l.reset(session) }

// drainLink surfaces the contiguous received prefix in FIFO order.
func (m *Member) drainLink(l *link) {
	progressed := false
	for {
		pkt, ok := l.inHold[l.inNext]
		if !ok {
			break
		}
		delete(l.inHold, l.inNext)
		l.inNext++
		progressed = true
		if l.pendingIn {
			// Reconfiguration buffering: the link is not yet causally
			// safe; park the message in arrival (FIFO) order.
			l.buffered = append(l.buffered, pkt.Msg)
			if m.trace != nil {
				m.trace.Holdback(m.net.Now(), int(m.self), pkt.Msg.TraceRef(), "link awaiting causal barrier")
			}
		} else {
			m.acceptFlood(pkt.Msg, l.peer)
		}
	}
	if progressed {
		m.armAck()
	}
}

// onLinkAck prunes the retransmission log.
func (m *Member) onLinkAck(from transport.NodeID, ack *LinkAck) {
	l := m.links[from]
	if l == nil || ack.Session != l.outSession {
		return
	}
	for s := l.outAcked + 1; s <= ack.Cum; s++ {
		delete(l.outLog, s)
	}
	if ack.Cum > l.outAcked {
		l.outAcked = ack.Cum
	}
	// Pruned logs may have widened the ingress admission window.
	m.drainBlocked()
}

// onLinkNack retransmits the requested range from the send log.
func (m *Member) onLinkNack(from transport.NodeID, nack *LinkNack) {
	l := m.links[from]
	if l == nil || nack.Session != l.outSession {
		return
	}
	for s := nack.From; s <= nack.To && s <= l.outSeq; s++ {
		if pkt, ok := l.outLog[s]; ok {
			m.CtrlMsgs.Inc()
			m.net.Send(m.self, l.peer, pkt)
		}
	}
}

// onLinkHeartbeat learns the peer's top sequence, arming gap recovery
// for lost tails.
func (m *Member) onLinkHeartbeat(from transport.NodeID, hb *LinkHeartbeat) {
	l := m.links[from]
	if l == nil || hb.Session < l.inSession {
		return
	}
	if hb.Session > l.inSession {
		m.adoptSession(l, hb.Session)
	}
	if hb.Top > l.inTop {
		l.inTop = hb.Top
	}
	if l.inTop >= l.inNext {
		m.armNack()
		return
	}
	if hb.Top > 0 {
		// Everything advertised is already received, yet the peer still
		// holds retransmission state: our ack was lost. Re-ack so its
		// log drains and the heartbeats stop.
		cum := l.inNext - 1
		l.lastAcked = cum
		m.sendCtrl(from, &LinkAck{Group: m.cfg.Group, Session: l.inSession, Cum: cum})
	}
}

// armAck schedules a delivery-progress acknowledgement.
func (m *Member) armAck() {
	if m.ackArmed || m.closed {
		return
	}
	m.ackArmed = true
	m.net.After(m.cfg.ackInterval(), func() {
		m.onAckTimer()
		m.flush()
	})
}

func (m *Member) onAckTimer() {
	m.ackArmed = false
	if m.closed {
		return
	}
	for _, peer := range m.order {
		l := m.links[peer]
		if cum := l.inNext - 1; cum > l.lastAcked {
			l.lastAcked = cum
			m.sendCtrl(peer, &LinkAck{Group: m.cfg.Group, Session: l.inSession, Cum: cum})
		}
	}
}

// armNack schedules gap-driven retransmission requests.
func (m *Member) armNack() {
	if m.nackArmed || m.closed {
		return
	}
	m.nackArmed = true
	m.net.After(m.cfg.nackDelay(), func() {
		m.onNackTimer()
		m.flush()
	})
}

func (m *Member) onNackTimer() {
	m.nackArmed = false
	if m.closed {
		return
	}
	rearm := false
	for _, peer := range m.order {
		l := m.links[peer]
		if l.inTop < l.inNext && len(l.inHold) == 0 {
			continue
		}
		top := l.inTop
		for s := range l.inHold {
			if s > top {
				top = s
			}
		}
		if top < l.inNext {
			continue
		}
		rearm = true
		m.sendCtrl(peer, &LinkNack{Group: m.cfg.Group, Session: l.inSession, From: l.inNext, To: top})
	}
	if rearm {
		m.armNack()
	}
}

// armHeartbeat schedules top-sequence advertisements while any link
// has unacknowledged traffic or an unacknowledged barrier.
func (m *Member) armHeartbeat() {
	if m.hbArmed || m.closed {
		return
	}
	m.hbArmed = true
	m.net.After(m.cfg.heartbeat(), func() {
		m.onHeartbeatTimer()
		m.flush()
	})
}

func (m *Member) onHeartbeatTimer() {
	m.hbArmed = false
	if m.closed {
		return
	}
	rearm := false
	for _, peer := range m.order {
		l := m.links[peer]
		if len(l.outLog) > 0 {
			rearm = true
			m.sendCtrl(peer, &LinkHeartbeat{Group: m.cfg.Group, Session: l.outSession, Top: l.outSeq})
		}
		if l.barrierNeeded {
			rearm = true
			m.sendBarriers(l)
		}
	}
	if rearm {
		m.armHeartbeat()
	}
}

// String renders a link for debugging.
func (l *link) String() string {
	return fmt.Sprintf("link{peer=%d out=%d/%d acked=%d in=%d hold=%d pending=%v}",
		l.peer, l.outSeq, l.outSession, l.outAcked, l.inNext-1, len(l.inHold), l.pendingIn)
}
