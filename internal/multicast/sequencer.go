package multicast

import (
	"slices"

	"catocs/internal/stability"
	"catocs/internal/vclock"
)

// sequencer is the fixed sequencer of a total ordering (TotalSeq and
// TotalCausal): it hands out global positions, announces them in runs
// and answers order NACKs from its assignment log. Only the member at
// Config.SequencerRank has one; every other member's is nil, and a view
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
	// non-atomic group never asks): the id assigned global position
	// assignedBase+i sits at assignedLog[i]. Each assignment first pops
	// the front while it is stable — delivered everywhere, so every
	// member's delivery frontier is past it and no current OrderNack can
	// name it — so the log spans the unstable window, not the epoch.
	assignedLog  []MsgID
	assignedBase uint64
	// assigned indexes the log by id, per sender: the position of every
	// id in the log, kept and dropped with it (see posRun).
	assigned []posRun
	// TotalCausal only: the causal delay queue the sequencer runs so
	// assigned positions extend happens-before. Sharded like pendQ: only
	// each sender's next sequence can be sequenceable.
	seqQ         []map[uint64]*DataMsg
	seqDelivered vclock.VC
}

// newSequencer returns m's sequencer for its current view, or nil when
// m does not sequence it.
func newSequencer(m *Member) *sequencer {
	if m.cfg.Ordering != TotalSeq && m.cfg.Ordering != TotalCausal || m.rank != m.cfg.SequencerRank {
		return nil
	}
	s := &sequencer{m: m}
	// The task flushes whichever sequencer is current when it runs: one a
	// view change replaced may still have a task queued, and it serves
	// the new view's run.
	s.flushFn = func() {
		if m.seq != nil {
			m.seq.flushOrders()
		}
	}
	if m.cfg.Ordering == TotalCausal {
		s.seqQ = newShardQ(len(m.nodes))
		s.seqDelivered = vclock.New(len(m.nodes))
	}
	return s
}

// posRun is one sender's stretch of the log index: pos[q-base] is the
// global position of (sender, q) while that id is in the log, 0 when it
// is not. Sequence numbers are dense per sender, so a slice replaces a
// map; it grows at either end (TotalSeq assigns a retransmitted early
// cast after its successors) and sheds its front as the log pops.
type posRun struct {
	base uint64
	pos  []uint64
}

// assignOrder gives a message the next global position and announces
// it.
func (s *sequencer) assignOrder(id MsgID) {
	m := s.m
	s.seqCounter++
	if m.stab != nil {
		s.prune()
		if len(s.assignedLog) == 0 {
			s.assignedBase = s.seqCounter
		}
		s.assignedLog = append(s.assignedLog, id)
		s.index(id, s.seqCounter)
	}
	// Apply locally first: the sequencer's own copy must not depend on
	// the lossy network loopback (it cannot NACK itself).
	m.orderKnown.Add(id)
	m.orderSet(s.seqCounter, id)
	if s.seqCounter > m.maxGlobalSeen {
		m.maxGlobalSeen = s.seqCounter
	}
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

// prune pops the log's stable front and drops it from the index. The
// popped slots are never written again (order NACK answers alias the
// log), and a log that has shrunk to under a quarter of its capacity
// moves to a fresh array.
func (s *sequencer) prune() {
	k := 0
	for _, id := range s.assignedLog {
		if !s.m.stab.Stable(stability.Key{Sender: id.Sender, Seq: id.Seq}) {
			break
		}
		s.unindex(id)
		k++
	}
	if k > 0 {
		s.assignedLog = compact(s.assignedLog[k:])
		s.assignedBase += uint64(k)
	}
}

// index records that id holds global position g. A run never spans more
// than maxOrderWindow sequence numbers: an id beyond that stays
// unindexed, and a NACK naming it gets the answer a pruned id gets.
func (s *sequencer) index(id MsgID, g uint64) {
	if s.assigned == nil {
		s.assigned = make([]posRun, len(s.m.nodes))
	}
	r := &s.assigned[id.Sender]
	switch q, n := id.Seq, uint64(len(r.pos)); {
	case n == 0:
		r.base = q
		r.pos = append(r.pos, g)
	case q >= r.base:
		i := q - r.base
		if i >= maxOrderWindow {
			return
		}
		if i >= n {
			r.pos = append(r.pos, make([]uint64, i+1-n)...)
		}
		r.pos[i] = g
	default:
		d := r.base - q
		if d > maxOrderWindow-n {
			return
		}
		r.pos = append(make([]uint64, d, d+n), r.pos...)
		r.base, r.pos[0] = q, g
	}
}

// unindex drops a popped id from the index and trims its run's empty
// front.
func (s *sequencer) unindex(id MsgID) {
	r := &s.assigned[id.Sender]
	if id.Seq < r.base || id.Seq-r.base >= uint64(len(r.pos)) {
		return // never indexed
	}
	r.pos[id.Seq-r.base] = 0
	k := 0
	for k < len(r.pos) && r.pos[k] == 0 {
		k++
	}
	if k > 0 {
		r.pos = compact(r.pos[k:])
		r.base += uint64(k)
	}
}

// compact returns s, or a copy of it in an array of its own size once
// it fills less than a quarter of its capacity: a window that slid back
// from a burst lets the burst's array go.
func compact[T any](s []T) []T {
	if len(s) < cap(s)/4 {
		return slices.Clone(s)
	}
	return s
}

// assignedGlobalOf returns the global position of an id in the log.
// Ids never assigned, pruned, unindexed or from no member are not
// found.
func (s *sequencer) assignedGlobalOf(id MsgID) (uint64, bool) {
	if int(id.Sender) < 0 || int(id.Sender) >= len(s.assigned) {
		return 0, false
	}
	r := s.assigned[id.Sender]
	if id.Seq < r.base || id.Seq-r.base >= uint64(len(r.pos)) {
		return 0, false
	}
	g := r.pos[id.Seq-r.base]
	return g, g != 0
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
			// Assigned this epoch, and pruned since or never indexed.
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
			i, j := first-s.assignedBase, min(last+1, first+wireMaxWant)-s.assignedBase
			m.CtrlMsgs.Inc()
			m.send(n.From, &OrderBatchMsg{Group: m.cfg.Group, Epoch: m.epoch, FirstGlobal: first, IDs: s.assignedLog[i:j:j]})
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
	if end := s.assignedBase + uint64(len(s.assignedLog)); max(n.FromGlobal, s.assignedBase) < end {
		extend(max(n.FromGlobal, s.assignedBase), end-1)
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
		if msg, ok := s.seqQ[p][head]; ok && s.seqDelivered.Deliverable(msg.VC, msg.Sender) {
			delete(s.seqQ[p], head)
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
