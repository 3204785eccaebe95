package scalecast

import (
	"fmt"
	"time"

	"catocs/internal/flowcontrol"
	"catocs/internal/transport"
)

// This file enforces the flow-control budget at the scalecast overlay
// ingress. The bounded resource is the member's link retransmission
// logs — the hybrid buffer E16 measures — which grow when a neighbour
// stops acking (the scalecast face of the paper's §5 slow-consumer
// problem). Only the member's own offered load is throttled: a relay
// MUST forward, because withholding a relayed message would silently
// break causal order for everyone downstream of this node's overlay
// position. Throttling the origin is both sufficient (every log entry
// traces back to some origin's cast) and safe (an unsent cast has no
// causal successors to strand).

// blockedFlood is an application cast parked at the ingress window.
type blockedFlood struct {
	payload any
	size    int
	at      time.Duration
}

// BlockedCount returns the number of casts parked at the ingress
// window.
func (m *Member) BlockedCount() int { return len(m.blocked) }

// RetransCount returns the total entries across this member's link
// retransmission logs — the occupancy the ingress budget bounds.
func (m *Member) RetransCount() int {
	msgs, _ := m.retrans()
	return msgs
}

// retrans totals the link retransmission logs in messages and bytes.
func (m *Member) retrans() (msgs, bytes int) {
	for _, l := range m.links {
		msgs += len(l.outLog)
		for _, pkt := range l.outLog {
			bytes += transport.ApproxSize(pkt)
		}
	}
	return msgs, bytes
}

// admit applies the overflow policy to a new own cast. True means
// flood now; false means the cast was parked or shed. One cast logs
// one copy per link, so the projected occupancy grows by the overlay
// degree, not by one.
func (m *Member) admit(payload any, size int) bool {
	b := m.cfg.Budget
	if !b.Limited() || m.cfg.Overflow == flowcontrol.None {
		return true
	}
	copies := len(m.order)
	msgs, bytes := m.retrans()
	// FIFO within the origin: nothing may overtake a parked cast.
	if len(m.blocked) == 0 && !b.Exceeded(msgs+copies, bytes+copies*size) {
		return true
	}
	if m.cfg.Overflow == flowcontrol.Shed {
		m.ShedCount.Inc()
		if m.trace != nil {
			m.trace.Mark(m.net.Now(), int(m.self),
				fmt.Sprintf("shed cast size=%dB budget=%s", size, b))
		}
		return false
	}
	// Block (and Spill/Suspect, which degrade to it here).
	m.blocked = append(m.blocked, blockedFlood{payload: payload, size: size, at: m.net.Now()})
	return false
}

// drainBlocked re-admits parked casts in FIFO order as far as the
// budget allows; called when link acks prune the retransmission logs.
// Their local deliveries flush at the end of the caller's step.
func (m *Member) drainBlocked() {
	if m.closed || len(m.blocked) == 0 {
		return
	}
	now := m.net.Now()
	for len(m.blocked) > 0 {
		b := m.blocked[0]
		copies := len(m.order)
		msgs, bytes := m.retrans()
		if m.cfg.Budget.Exceeded(msgs+copies, bytes+copies*b.size) {
			return
		}
		m.blocked = m.blocked[1:]
		m.AdmissionStall.Observe((now - b.at).Seconds())
		m.originate(b.payload, b.size)
	}
}
