package multicast

import (
	"slices"

	"catocs/internal/seqwin"
	"catocs/internal/stability"
	"catocs/internal/vclock"
)

// sequencerRank is the rank of the member that sequences a total
// ordering in every view.
const sequencerRank vclock.ProcessID = 0

// sequencer is the fixed sequencer of a total ordering (TotalSeq and
// TotalCausal): it hands out global positions, announces them in runs
// and answers order NACKs from its assignment log. Only the member at
// sequencerRank has one; every other member's is nil, and a view
// change builds a fresh one.
type sequencer struct {
	m *Member

	seqCounter uint64 // last global position assigned
	// Order-announcement run: assignments accumulate into one contiguous
	// run and flush on size or at the back of the dispatch queue.
	obFirst uint64  // global position of obIDs[0]
	obIDs   []MsgID // pending announcements, contiguous from obFirst
	obArmed bool    // flush task queued
	flushFn func()  // the flush task, bound once so arming allocates nothing
	// Assignment log for order retransmission (atomic groups only; a
	// non-atomic group never asks): the id assigned each global
	// position, contiguous from the oldest one kept. Each assignment
	// first pops the front while it is stable — delivered everywhere,
	// so every member's delivery frontier is past it and no current
	// OrderNack can name it — so the log spans the unstable window, not
	// the epoch.
	log seqwin.Window[MsgID]
	// assigned indexes the log by id, per sender: the position of every
	// id in the log, kept and dropped with it. A TotalSeq sequencer
	// assigns a retransmitted early cast after its successors, so a
	// sender's index grows at either end.
	assigned []seqwin.Window[uint64]
	// TotalCausal only: the causal delay queue the sequencer runs so
	// assigned positions extend happens-before. Sharded like pendQ: only
	// each sender's next sequence can be sequenceable.
	seqQ         []seqwin.Window[*DataMsg]
	seqDelivered vclock.VC
}

// newSequencer returns m's sequencer for its current view, or nil when
// m does not sequence it.
func newSequencer(m *Member) *sequencer {
	if m.cfg.Ordering != TotalSeq && m.cfg.Ordering != TotalCausal || m.rank != sequencerRank {
		return nil
	}
	s := &sequencer{m: m, assigned: make([]seqwin.Window[uint64], len(m.nodes))}
	// The task flushes whichever sequencer is current when it runs: one a
	// view change replaced may still have a task queued, and it serves
	// the new view's run.
	s.flushFn = func() {
		if m.seq != nil {
			m.seq.flushOrders()
		}
	}
	if m.cfg.Ordering == TotalCausal {
		s.seqQ = make([]seqwin.Window[*DataMsg], len(m.nodes))
		s.seqDelivered = vclock.New(len(m.nodes))
	}
	return s
}

// assignOrder gives a message the next global position and announces
// it.
func (s *sequencer) assignOrder(id MsgID) {
	m := s.m
	s.seqCounter++
	if m.stab != nil {
		s.prune()
		s.log.Put(s.seqCounter, id)
		s.assigned[id.Sender].Put(id.Seq, s.seqCounter)
	}
	// Apply locally first: the sequencer's own copy must not depend on
	// the lossy network loopback (it cannot NACK itself).
	m.learnOrder(s.seqCounter, id)
	// Announce in runs: assignments accumulate into one contiguous run
	// (seqCounter only ever increments, so the run stays contiguous) and
	// flush when full or when a zero-delay task, queued behind whatever
	// the dispatcher already holds, comes up. At light load that is the
	// same dispatch turn; at saturation a run collects every arrival
	// already queued. One frame per run instead of one per cast is what
	// lifts a fixed sequencer's ceiling on a real transport.
	if len(s.obIDs) == 0 {
		s.obFirst = s.seqCounter
	}
	s.obIDs = append(s.obIDs, id)
	if len(s.obIDs) >= orderRunMax {
		s.flushOrders()
	} else if !s.obArmed {
		s.obArmed = true
		m.net.After(0, s.flushFn)
	}
}

// prune pops the log's stable front and drops it from the index.
func (s *sequencer) prune() {
	for g, ok := s.log.Min(); ok; g, ok = s.log.Min() {
		id, _ := s.log.Get(g)
		if !s.m.stab.Stable(stability.Key{Sender: id.Sender, Seq: id.Seq}) {
			return
		}
		s.log.Delete(g)
		s.assigned[id.Sender].Delete(id.Seq)
	}
}

// assignedGlobalOf returns the global position of an id in the log.
// Ids never assigned, pruned or from no member are not found.
func (s *sequencer) assignedGlobalOf(id MsgID) (uint64, bool) {
	if int(id.Sender) < 0 || int(id.Sender) >= len(s.assigned) {
		return 0, false
	}
	return s.assigned[id.Sender].Get(id.Seq)
}

// flushOrders broadcasts the accumulated ordering run. Runs both on
// batch-full and from the queued flush task; a task firing after a
// size flush finds the batch empty and is a no-op.
func (s *sequencer) flushOrders() {
	m := s.m
	s.obArmed = false
	if m.closed || len(s.obIDs) == 0 {
		return
	}
	ob := &OrderBatchMsg{Group: m.cfg.Group, Epoch: m.epoch, FirstGlobal: s.obFirst, IDs: s.obIDs}
	s.obIDs = nil // the message aliases the slice; start a fresh batch
	for r := range m.nodes {
		if vclock.ProcessID(r) == m.rank {
			continue
		}
		m.CtrlMsgs.Inc()
		m.send(vclock.ProcessID(r), ob)
	}
}

// onOrderNack resends assignments from the log in runs, one
// OrderBatchMsg per contiguous range of positions, in ascending order:
// the requester's frontier onward and the positions of the ids it wants
// that were assigned below it. A requested id the sequencer has never
// assigned means the sequencer itself missed that data (the requester
// evidently holds it, having named it), so the sequencer asks the
// requester for a data retransmission — closing the loop when the loss
// hit the sequencer-bound copy. A pruned id is stable, so the requester
// has delivered it since it asked: the NACK is stale, and neither the
// id nor positions below the log are answered.
func (s *sequencer) onOrderNack(n *OrderNack) {
	m := s.m
	if m.stab == nil {
		return
	}
	var below []uint64
	var unknown []MsgID
	for _, id := range n.Want {
		g, ok := s.assignedGlobalOf(id)
		switch {
		case ok:
			if g < n.FromGlobal {
				below = append(below, g)
			}
		case m.orderKnown.Has(id):
			// Assigned this epoch, and pruned since.
		default:
			if _, arrived := m.dataGet(id); !arrived {
				unknown = append(unknown, id)
			}
		}
	}
	slices.Sort(below)
	var first, last uint64 // the run being built; none while first is 0
	flush := func() {
		for ; first != 0 && first <= last; first += wireMaxWant {
			ids := make([]MsgID, min(last+1-first, wireMaxWant))
			for i := range ids {
				ids[i], _ = s.log.Get(first + uint64(i))
			}
			m.CtrlMsgs.Inc()
			m.send(n.From, &OrderBatchMsg{Group: m.cfg.Group, Epoch: m.epoch, FirstGlobal: first, IDs: ids})
		}
		first = 0
	}
	extend := func(lo, hi uint64) {
		if first != 0 && lo <= last+1 {
			last = max(last, hi)
			return
		}
		flush()
		first, last = lo, hi
	}
	for _, g := range below {
		extend(g, g)
	}
	if base, ok := s.log.Min(); ok {
		if from, end := max(n.FromGlobal, base), base+uint64(s.log.Len()); from < end {
			extend(from, end-1)
		}
	}
	flush()
	if len(unknown) > 0 {
		m.CtrlMsgs.Inc()
		m.send(n.From, &NackMsg{Group: m.cfg.Group, Epoch: m.epoch, From: m.rank, Want: unknown})
	}
}

// drainSequencer (TotalCausal) assigns global positions to pending
// messages in a causally consistent order: a message is sequenced only
// when all its causal predecessors have been sequenced, exactly the
// CBCAST delivery rule applied to the sequencing decision.
func (s *sequencer) drainSequencer() {
	// Same head-probe structure as drainHoldback: only each sender's
	// next sequence can pass the causal test, and the rank-0 restart
	// preserves the deterministic assignment order.
	for p := 0; p < len(s.seqQ); {
		head := s.seqDelivered.Get(vclock.ProcessID(p)) + 1
		if msg, ok := s.seqQ[p].Get(head); ok && s.seqDelivered.Deliverable(msg.VC, msg.Sender) {
			s.seqQ[p].Delete(head)
			s.seqDelivered.Set(msg.Sender, msg.Seq)
			if !s.m.orderKnown.Has(msg.ID()) {
				s.assignOrder(msg.ID())
			}
			p = 0
			continue
		}
		p++
	}
}

// resume splices a restarted TotalCausal sequencer back into the global
// order (ResumeChains): assignment restarts past frontier, and every
// cast the member delivered before is already sequenced.
func (s *sequencer) resume(frontier uint64) {
	if frontier > s.seqCounter {
		s.seqCounter = frontier
	}
	s.seqDelivered.Merge(s.m.delivered)
}
