package multicast

import (
	"catocs/internal/stability"
	"catocs/internal/vclock"
)

// This file implements atomic delivery: buffer every message until it
// is stable (known delivered everywhere), acknowledge delivered clocks
// so the stability frontier advances, and recover lost messages by
// negative acknowledgement and retransmission from any member's
// unstable buffer.
//
// The paper's §2 observes that without atomicity, the loss of one
// message can transitively suppress delivery of unboundedly many
// causal successors; with it, every member pays the buffering cost §5
// analyses. Both behaviours are measurable here: run a lossy causal
// group with Atomic=false and delivery stalls; with Atomic=true it
// recovers, and the Stability tracker reports the buffer occupancy the
// recovery capability costs.

// observeStability merges a peer's delivered clock into the matrix and
// evicts newly stable messages.
func (m *Member) observeStability(p vclock.ProcessID, delivered vclock.VC) {
	if m.stab == nil {
		return
	}
	m.stab.ObserveAck(p, delivered)
}

// armAck schedules a delivered-clock broadcast if one is not already
// scheduled. Acks are event-driven rather than free-running, and a
// settled member answers only unsettled peers and stale clocks (onAck),
// so a group with nothing unstable and no gaps schedules no events and
// the simulation terminates.
func (m *Member) armAck() {
	if m.ackArmed || m.closed || m.stab == nil {
		return
	}
	m.ackArmed = true
	m.net.After(m.cfg.ackInterval(), m.fireAck)
}

// fireAck broadcasts this member's delivered clock and re-arms while
// unstable messages remain buffered. A broadcast is skipped when the
// clock has not moved since the last advertisement (on data or a prior
// ack), we hold no unstable messages ourselves, and no forced
// re-advertise is pending — a stable member with an unchanged clock
// tells the group nothing new. While we are unstable the broadcast
// always goes out, so recovery from a lost ack never depends on the
// suppression heuristic. The ack says whether we are settled (nothing
// unstable after merging our own row), which is what lets settled
// peers leave it unanswered.
func (m *Member) fireAck() {
	m.ackArmed = false
	if m.closed || m.stab == nil {
		return
	}
	// Merge our own row first: our stability clock is authoritative for
	// ourselves.
	m.stab.ObserveAck(m.rank, m.stabilityClock())
	sc := m.stabilityClock()
	changed := m.lastAdvert == nil || !sc.Equal(m.lastAdvert)
	if changed || m.ackForce || m.stab.Unstable() > 0 {
		m.lastAdvert = sc.Clone()
		m.ackForce = false
		ack := &AckMsg{Group: m.cfg.Group, Epoch: m.epoch, From: m.rank, Settled: m.stab.Unstable() == 0, Delivered: sc.Clone()}
		for r := range m.nodes {
			if vclock.ProcessID(r) == m.rank {
				continue
			}
			m.CtrlMsgs.Inc()
			m.send(vclock.ProcessID(r), ack)
		}
	}
	// The ack cycle doubles as the flow-control clock: evictions from
	// our own merge may have widened the admission window, and the
	// Suspect policy's stall check runs here so it needs no
	// free-running timer of its own.
	m.drainBlocked()
	m.checkSuspicion()
	// Unstable(), not Occupancy(): spilled entries still await
	// stabilization even when the in-memory buffer is empty, and
	// stopping the ack cycle would orphan them in the WAL forever.
	if m.stab.Unstable() > 0 || len(m.blocked) > 0 {
		m.armAck()
	}
}

// onAck merges a peer's delivered clock. An ack showing that the peer
// has delivered messages we have neither delivered nor buffered is the
// only evidence of a lost message with no causal successor, so it arms
// the NACK path.
func (m *Member) onAck(a *AckMsg) {
	m.observeStability(a.From, a.Delivered)
	m.drainBlocked()
	if m.known != nil {
		m.raiseKnown(a.Delivered)
		// An armed timer will look for itself; only a disarmed one
		// needs the test.
		if !m.nackArmed && m.hasMissing() {
			m.armNack()
		}
	}
	// A peer acking a clock behind ours may have lost our last ack (a
	// drained member stops acking spontaneously); re-advertise so its
	// stability frontier can advance. Terminates once clocks agree.
	// Likewise, an unsettled peer acking while we are fully stable is
	// missing somebody's matrix row — ours, if our last advertisement
	// was the one that got lost — so force a re-advertise past the
	// suppression check: one fresh row per unsettled ack. A settled
	// peer needs nothing from us, and answering it would start a
	// ping-pong between settled members that never ends.
	if m.stab != nil {
		if !a.Settled && m.stab.Unstable() == 0 {
			m.ackForce = true
			m.armAck()
		}
		sc := m.stabilityClock()
		for i := range sc {
			p := vclock.ProcessID(i)
			if a.Delivered.Get(p) < sc.Get(p) {
				m.ackForce = true
				m.armAck()
				break
			}
		}
	}
}

// armNack schedules a gap check if none is pending.
func (m *Member) armNack() {
	if m.nackArmed || m.closed || m.stab == nil {
		return
	}
	m.nackArmed = true
	m.net.After(m.cfg.nackDelay(), m.fireNack)
}

// fireNack computes the set of messages the holdback queue is waiting
// on and requests retransmission. The first attempts go to each
// missing message's original sender; persistent misses rotate through
// other members, which works because atomic mode buffers unstable
// messages everywhere (the property §5 charges the quadratic buffering
// bill for). A member missing its own cast (every copy, loopback
// included, lost) keeps itself in the rotation: it buffered the cast
// when it sent it, and while the cast is undelivered here it cannot be
// stable. That copy may be the only one left — the sender was cut off
// before any other arrived — and a rotation that skipped it would
// request the cast forever. One round asks for at most wireMaxWant
// ids, the most one NackMsg may carry; the rest wait for later rounds.
func (m *Member) fireNack() {
	m.nackArmed = false
	if m.closed || m.stab == nil {
		return
	}
	m.fireOrderNack()
	// Ids arrive in (sender, seq) order, so each target's share is
	// sorted as it is built and rank order is target order.
	var want [][]MsgID
	asked := 0
	m.eachMissing(func(id MsgID) bool {
		if want == nil {
			want = make([][]MsgID, len(m.nodes))
		}
		retries := m.nackRetries[id]
		m.nackRetries[id] = retries + 1
		target := id.Sender
		if retries >= 2 {
			// Rotate through other ranks, skipping ourselves unless the
			// cast is our own.
			target = vclock.ProcessID((int(id.Sender) + retries - 1) % len(m.nodes))
			if target == m.rank && id.Sender != m.rank {
				target = vclock.ProcessID((int(target) + 1) % len(m.nodes))
			}
		}
		want[target] = append(want[target], id)
		asked++
		return asked < wireMaxWant
	})
	if want == nil {
		if m.pendCount == 0 && m.dataCount == 0 {
			m.nackRetries = make(map[MsgID]int)
			return
		}
		// Undelivered backlog with nothing data-missing: either about
		// to drain, or waiting on order assignments (handled by
		// fireOrderNack); re-check later.
		m.armNack()
		return
	}
	for target, ids := range want {
		if len(ids) == 0 {
			continue
		}
		m.CtrlMsgs.Inc()
		m.send(vclock.ProcessID(target), &NackMsg{Group: m.cfg.Group, Epoch: m.epoch, From: m.rank, Want: ids})
	}
	m.armNack()
}

// eachMissing visits, in (sender, seq) order, the id of every message
// known to exist that this member has neither delivered nor buffered,
// until visit returns false. The per-sender known frontier holds all
// the evidence: acks and piggybacked delivered clocks raise it (which
// catches a lost message with no successors), and so does every held
// or parked message's own sequence and, under Causal, a held message's
// dependency stamp (onDataMain). A held message waits only on prefixes
// that start at delivered+1, so the union of what the holdback queue
// waits on is the window (delivered, known] minus the queue itself.
// The total orders deliver across per-sender order, so their window
// starts at the delivered set's contiguous frontier and skips what was
// delivered above it. A parked delta is not missing while its
// predecessor's stamp is outstanding: the retransmission that brings
// the predecessor decodes it, so asking for it too only buys a
// duplicate. One parked right above its chain head waits on a stamp
// ResumeChains skipped, which nothing will bring, and is asked for.
func (m *Member) eachMissing(visit func(MsgID) bool) {
	fifo := m.cfg.fifoDelivery()
	f := m.frontier()
	for s, hi := range m.known {
		id := MsgID{Sender: vclock.ProcessID(s)}
		for id.Seq = f[s] + 1; id.Seq <= hi; id.Seq++ {
			var have bool
			if !fifo {
				have = m.dataQ[s].Has(id.Seq) || m.deliveredIDs.Has(id)
			} else {
				have = m.pendQ[s].Has(id.Seq)
			}
			if !have && m.parkedCount > 0 {
				have = m.parked[s].Has(id.Seq) && id.Seq-1 > m.reconSeq[s]
			}
			if !have && !visit(id) {
				return
			}
		}
	}
}

// hasMissing reports whether eachMissing would visit anything. Under
// FIFO and Causal it only counts: known >= delivered per sender, and
// every held or parked (s, q) has delivered[s] < q <= known[s], so
// something is missing exactly when the windows hold more sequences than
// the queue holds messages plus the parked arrivals eachMissing skips —
// every parked one but those right above their chain head. The total
// orders have no such count (deliveries above the frontier sit in the
// window too) and stop at the first gap.
func (m *Member) hasMissing() bool {
	if !m.cfg.fifoDelivery() {
		found := false
		m.eachMissing(func(MsgID) bool { found = true; return false })
		return found
	}
	var window uint64
	for s, hi := range m.known {
		window += hi - m.delivered[s]
	}
	have := m.pendCount + m.parkedCount
	if m.parkedCount > 0 {
		for s := range m.parked {
			if m.parked[s].Has(m.reconSeq[s] + 1) {
				have--
			}
		}
	}
	return window > uint64(have)
}

// fireOrderNack (total modes) asks the sequencer to resend lost order
// assignments: positions between the delivery frontier and the highest
// seen, plus positions for arrived-but-unordered data, wanted in
// (sender, seq) order.
func (m *Member) fireOrderNack() {
	if m.cfg.Ordering != TotalSeq && m.cfg.Ordering != TotalCausal {
		return
	}
	if m.seq != nil {
		return // the sequencer is the source of truth
	}
	var want []MsgID
	for s := range m.dataQ {
		m.dataQ[s].Ascend(func(seq uint64, _ *DataMsg) bool {
			if id := (MsgID{Sender: vclock.ProcessID(s), Seq: seq}); !m.orderKnown.Has(id) {
				want = append(want, id)
			}
			return true
		})
	}
	gap := m.nextGlobal <= m.maxGlobalSeen && !m.orderWin.Has(m.nextGlobal)
	if len(want) == 0 && !gap {
		return
	}
	m.CtrlMsgs.Inc()
	m.send(sequencerRank, &OrderNack{
		Group: m.cfg.Group, Epoch: m.epoch, From: m.rank,
		FromGlobal: m.nextGlobal, Want: want,
	})
}

// onNack retransmits every requested message still in our unstable
// buffer back to the requester.
func (m *Member) onNack(n *NackMsg) {
	if m.stab == nil {
		return
	}
	for _, id := range n.Want {
		buffered, ok := m.stab.Get(stability.Key{Sender: id.Sender, Seq: id.Seq})
		if !ok {
			continue
		}
		data, ok := buffered.(*DataMsg)
		if !ok {
			continue
		}
		m.CtrlMsgs.Inc()
		m.send(n.From, &RetransMsg{Group: m.cfg.Group, Epoch: m.epoch, Data: data})
	}
}
