package multicast

import (
	"fmt"

	"catocs/internal/seqwin"
	"catocs/internal/transport"
	"catocs/internal/vclock"
)

// This file exposes the hooks the group-membership layer
// (internal/group) uses to run a virtually synchronous view change:
// collecting each member's unstable messages, force-delivering fills so
// all survivors agree on the old view's delivery set, and installing
// the new view. The flush protocol itself lives in internal/group;
// these hooks keep the member's invariants intact while it runs.

// UnstableData returns copies of the data messages currently held in
// the unstable buffer, sorted by (sender, seq). Empty in non-atomic
// mode.
func (m *Member) UnstableData() []*DataMsg {
	if m.stab == nil {
		return nil
	}
	var out []*DataMsg
	for _, k := range m.stab.Keys() { // in (sender, seq) order
		if buffered, ok := m.stab.Get(k); ok {
			if d, ok := buffered.(*DataMsg); ok {
				out = append(out, d)
			}
		}
	}
	return out
}

// ForceDeliver delivers msg immediately, bypassing the ordering
// discipline. The flush coordinator calls it with the old view's
// undelivered messages in (sender, seq) order, which preserves FIFO
// and, for messages that survived anywhere, causal order — the
// virtually synchronous guarantee that all survivors enter the new
// view having delivered the same set.
func (m *Member) ForceDeliver(msg *DataMsg) {
	if m.closed || m.isDuplicate(msg) {
		return
	}
	// Prune the delay queue the ordering mode actually uses. Deleting
	// from m.pending unconditionally (as this once did) left the total
	// orderings' holdback entries — and their gauge — stale after a
	// flush.
	switch m.cfg.Ordering {
	case TotalSeq, TotalCausal:
		m.dataDel(msg.ID())
	default:
		if m.validRank(msg.Sender) {
			if _, held := m.pendQ[msg.Sender].Delete(msg.Seq); held {
				m.pendCount--
			}
			if m.parked != nil { // nil for unstamped orderings
				// A fill may overtake parked deltas whose stamps never
				// arrived; every parked copy at or below it is dead.
				shard := &m.parked[msg.Sender]
				for q, ok := shard.Min(); ok && q <= msg.Seq; q, ok = shard.Min() {
					m.unpark(msg.Sender, q)
				}
			}
			// A fill this member never received still has to keep
			// known >= delivered, which hasMissing's count rests on.
			if m.known != nil && msg.Seq > m.known.Get(msg.Sender) {
				m.known.Set(msg.Sender, msg.Seq)
			}
		}
	}
	m.updateHoldbackGauge()
	m.doDeliver(msg)
}

// InstallView resets protocol state for a new membership epoch: new
// member list, new rank for this member, all per-view ordering state
// cleared. The member's transport address must be unchanged (it is the
// node, not the rank, that addresses the network). The delivery
// callback and accumulated metrics persist across views. Views
// installed this way carry no incarnation vector — the static-group
// case, where epoch checks alone reject cross-view packets.
func (m *Member) InstallView(nodes []transport.NodeID, rank vclock.ProcessID, epoch uint64) {
	m.InstallViewIncs(nodes, rank, epoch, nil)
}

// InstallViewIncs is InstallView for dynamic groups: incs, when
// non-nil, gives the incarnation number of each rank in the new view
// (incs[rank] is this member's own). Data stamped with any other
// incarnation for its rank is a leftover from a previous life of that
// identity — a pre-crash packet surviving a WAL-recovery rejoin — and
// is dropped by the incarnation guard in Handle. Epochs cannot catch
// those alone: a fast restart can rejoin before survivors notice the
// crash, and a healed partition can reuse epoch numbers.
func (m *Member) InstallViewIncs(nodes []transport.NodeID, rank vclock.ProcessID, epoch uint64, incs []uint32) {
	if nodes[rank] != m.Node() {
		panic("multicast: InstallView must keep the member's transport address")
	}
	if incs != nil && len(incs) != len(nodes) {
		panic("multicast: incarnation vector length must match the view")
	}
	if m.trace != nil {
		m.trace.Mark(m.net.Now(), int(m.Node()),
			fmt.Sprintf("install-view epoch=%d n=%d rank=%d", epoch, len(nodes), rank))
	}
	m.nodes = append([]transport.NodeID(nil), nodes...)
	m.rank = rank
	m.epoch = epoch
	if incs != nil {
		m.incs = append([]uint32(nil), incs...)
		m.inc = incs[rank]
	} else {
		m.incs = nil
		m.inc = 0
	}
	m.sendSeq = 0
	m.delivered = vclock.New(len(nodes))
	m.pendQ = make([]seqwin.Window[*DataMsg], len(nodes))
	m.pendCount = 0
	if m.cfg.stamped() {
		m.initChainState()
	}
	m.HoldbackGauge.Set(0)
	m.seq = newSequencer(m)
	m.orderWin = seqwin.Window[MsgID]{}
	m.orderKnown = newSeqSet(len(nodes))
	m.nextGlobal = 1
	m.dataQ = make([]seqwin.Window[*DataMsg], len(nodes))
	m.dataCount = 0
	m.lastAdvert = nil
	m.ackForce = false
	m.maxGlobalSeen = 0
	m.deliveredIDs = newSeqSet(len(nodes))
	m.nackRetries = make(map[MsgID]int)
	if m.stab != nil {
		m.stab.Resize(len(nodes))
		m.known = vclock.New(len(nodes))
		if m.contig != nil {
			m.contig = m.deliveredIDs.hi
		}
	}
	if m.cfg.Budget.Limited() && m.cfg.Atomic {
		m.window = m.cfg.Budget.Share(len(nodes))
	}
	if m.suspectedByMe != nil { // Suspect policy: accusations are per view
		m.suspectedByMe = make(map[vclock.ProcessID]bool)
	}
	// Casts parked under the old view get a fresh stall clock: the new
	// view must earn its own stall before anyone else is accused.
	m.lastAdmit = m.net.Now()
	// The stability reset emptied the admission window; casts parked
	// under the old view re-issue now, stamped with the new epoch.
	m.drainBlocked()
}
