package scalecast

import (
	"fmt"

	"catocs/internal/transport"
)

// Hybrid buffering (Almeida-style): in steady state nothing above the
// per-link FIFO machinery buffers at all — causal order is free. Only
// a topology change opens a buffering window, and only on the links it
// adds:
//
//   - A link added between two established members buffers inbound
//     packets until the receiver delivers the sender's *causal
//     barrier*, a control message flooded over the pre-existing
//     overlay. Everything the sender had delivered before creating
//     the link causally precedes the barrier, so once the barrier is
//     delivered the new shortcut cannot run ahead of its causal past;
//     the buffered packets then flush in link-FIFO order, which the
//     sender's forward-before-deliver discipline keeps causally
//     consistent.
//
//   - A fresh member (nothing delivered yet) bootstraps differently:
//     its own out-links carry its entire causal history from birth
//     ("born fresh"), so a peer may activate them immediately on a
//     direct marker. Inbound, the fresh member activates its first
//     link on the marker alone and adopts the sender's delivered map
//     as a *causal cut*: everything at or below the cut is pre-join
//     causal past, counted as already seen (state transfer is the
//     application's job, as in internal/group). Late copies of
//     pre-join messages flushing from other links then dedup away
//     instead of delivering behind their causal successors. The cut
//     is O(N) — but it travels once per join, not on every message:
//     metadata proportional to churn, constant in steady state, which
//     is the §5 trade scalecast exists to demonstrate.

// barrierPayload is the causal cut marker flooded over the overlay
// when a link is added: once To delivers it, the link From→To is
// causally safe to activate.
type barrierPayload struct {
	From transport.NodeID
	To   transport.NodeID
	Gen  uint64 // the link's out-session at From
}

// barrierPayloadSize is a flooded barrier's declared PayloadSize: the
// bytes its encoding takes (all of them control).
const barrierPayloadSize = 24

// LinkBarrier is the direct on-link half of the activation handshake:
// it announces the link's session, whether the sender's out-stream is
// complete from birth (Fresh), and the sender's delivered map at link
// creation (the causal cut a fresh receiver adopts).
type LinkBarrier struct {
	Group   string
	Session uint64
	Fresh   bool
	Cut     map[transport.NodeID]uint64
}

// LinkBarrierAck confirms activation so the peer stops re-announcing.
type LinkBarrierAck struct {
	Group   string
	Session uint64
}

// virgin reports whether this member may bootstrap-activate a link
// directly: it has delivered nothing external and has no active
// inbound link, so adopting the peer's cut cannot contradict anything
// already delivered.
func (m *Member) virgin() bool {
	if m.externalDeliveries > 0 {
		return false
	}
	for _, l := range m.links {
		if !l.pendingIn {
			return false
		}
	}
	return true
}

// sendBarriers announces a new link: the direct marker (bootstrap for
// fresh endpoints) and the flooded causal barrier (activation path
// between established members). Re-sent each heartbeat until acked.
func (m *Member) sendBarriers(l *link) {
	l.barrierNeeded = true
	cut := make(map[transport.NodeID]uint64, len(l.outCut))
	for id, seq := range l.outCut {
		cut[id] = seq
	}
	m.sendCtrl(l.peer, &LinkBarrier{Group: m.cfg.Group, Session: l.outSession, Fresh: l.bornFresh, Cut: cut})
	m.floodInternal(barrierPayload{From: m.self, To: l.peer, Gen: l.outSession})
	m.armHeartbeat()
}

// floodInternal broadcasts a protocol-internal payload through the
// same flood machinery as application traffic, so it is causally
// ordered against it.
func (m *Member) floodInternal(payload barrierPayload) {
	if m.closed {
		return
	}
	m.originSeq++
	fm := &FloodMsg{
		Group:       m.cfg.Group,
		Origin:      m.self,
		Seq:         m.originSeq,
		SentAt:      m.net.Now(),
		Payload:     payload,
		PayloadSize: barrierPayloadSize,
	}
	m.CtrlMsgs.Inc()
	m.forwardFlood(fm, m.self)
	m.deliverLocal(fm)
}

// onLinkBarrier handles the direct marker.
func (m *Member) onLinkBarrier(from transport.NodeID, b *LinkBarrier) {
	l := m.links[from]
	if l == nil || b.Session < l.inSession {
		return
	}
	if b.Session > l.inSession {
		m.adoptSession(l, b.Session)
	}
	if !l.pendingIn {
		// Already active (ack was lost): just re-confirm.
		m.sendCtrl(from, &LinkBarrierAck{Group: m.cfg.Group, Session: l.inSession})
		return
	}
	if b.Fresh {
		// The peer's out-stream is complete from its birth; nothing can
		// arrive on it ahead of its causal past.
		m.activateLink(l)
		return
	}
	if m.virgin() {
		// Bootstrap: adopt the peer's causal cut as pre-join past, then
		// ride its stream, which is complete above the cut.
		for id, seq := range b.Cut {
			if seq > m.delivered[id] {
				m.delivered[id] = seq
			}
		}
		m.activateLink(l)
	}
	// Otherwise wait for the flooded barrier to arrive causally.
}

// onBarrierDelivered runs when a flooded barrier is delivered like any
// other broadcast; only the link's target acts on it.
func (m *Member) onBarrierDelivered(bp barrierPayload) {
	if bp.To != m.self {
		return
	}
	l := m.links[bp.From]
	if l == nil || !l.pendingIn || bp.Gen < l.inSession {
		return
	}
	if bp.Gen > l.inSession {
		m.adoptSession(l, bp.Gen)
	}
	m.activateLink(l)
}

// activateLink ends a link's buffering window: flush in link-FIFO
// order and confirm to the peer.
func (m *Member) activateLink(l *link) {
	l.pendingIn = false
	if m.trace != nil {
		m.trace.SpanEnd(m.net.Now(), int(m.self),
			fmt.Sprintf("link-activation peer=%d", l.peer))
	}
	buffered := l.buffered
	l.buffered = nil
	for _, fm := range buffered {
		m.acceptFlood(fm, l.peer)
	}
	m.sendCtrl(l.peer, &LinkBarrierAck{Group: m.cfg.Group, Session: l.inSession})
	m.updateGauge()
}

// onLinkBarrierAck stops re-announcing an activated link.
func (m *Member) onLinkBarrierAck(from transport.NodeID, ack *LinkBarrierAck) {
	l := m.links[from]
	if l == nil || ack.Session != l.outSession {
		return
	}
	l.barrierNeeded = false
	l.outCut = nil
}
