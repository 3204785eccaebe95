package multicast

import "catocs/internal/vclock"

// Static-membership recovery. The SimNet stack recovers a crashed
// member through the membership protocol: a view change resets every
// survivor's per-sender chains around the rejoiner, so the reborn
// process can start its sequence space from scratch under a new
// incarnation. A static group — the real-TCP fleet, which has no
// membership protocol at all — offers no such reset: survivors hold
// delivered[rank]=k forever, and a restarted member that re-entered at
// seq 1 would sit behind their FIFO gap check until the heat death of
// the holdback queue. The pair below is the fleet's alternative: the
// member checkpoints its chain frontiers into its WAL on shutdown and
// resumes them on restart, splicing itself back into the very same
// sequence space it left.

// CheckpointChains returns the receive-chain state ResumeChains needs
// to restore: the contiguous delivered (ack) clock and, for total
// orderings, the contiguous global-order delivery prefix (0 when the
// ordering has none). Call from the transport's dispatch context.
func (m *Member) CheckpointChains() (ack []uint64, totalFrontier uint64) {
	ack = append([]uint64(nil), m.stabilityClock()...)
	switch m.cfg.Ordering {
	case TotalSeq, TotalCausal:
		totalFrontier = m.nextGlobal - 1
	}
	return ack, totalFrontier
}

// ResumeChains splices a restarted member back into a static group's
// sequence space. Call once, before any traffic, from the transport's
// dispatch context (in practice: inside the same Inject closure that
// built the member).
//
//   - sendSeq resumes the send chain: the next Multicast is stamped
//     sendSeq+1. Resuming at the WAL's *stable* cast count and then
//     re-multicasting the unstable suffix hands the suffix its
//     original sequence numbers back, so survivors that already
//     delivered a replayed cast drop it as a seq-level duplicate and
//     survivors that missed it deliver it — at-least-once replay with
//     the dedup built into the FIFO chains.
//   - ack resumes the receive chains from the last checkpoint:
//     deliveries from the previous life are not re-requested, and the
//     NACK path asks peers only for the downtime gap — which they can
//     serve, because this member's frozen ack row kept exactly that
//     gap unstable (buffered for retransmission) everywhere.
//   - totalFrontier resumes the global delivery order (total
//     orderings): positions at or below it are already applied. A
//     resumed TotalCausal *sequencer* also restarts assignment there;
//     its pre-crash assignment log does not survive, so order
//     announcements still in flight at shutdown are unrecoverable —
//     the one gap between this splice and a full membership protocol,
//     tracked as WAL-logging the assignment log.
//
// All frontiers only move forward; a stale checkpoint merely widens
// the re-requested gap.
//
// replay is how many casts the caller re-multicasts next (the WAL's
// unstable suffix). They get their old sequence numbers but fresh,
// larger stamps, and a survivor that already knows the previous life's
// stamp for such a number keeps it and drops the new copy as a
// duplicate — so a delta against a replayed cast would decode against
// the wrong base there and understate the stamp. The member therefore
// casts full clocks through the replay and on the first cast past it,
// the first sequence number no survivor can know a stamp for: deltas
// resume behind it.
func (m *Member) ResumeChains(sendSeq uint64, replay int, ack []uint64, totalFrontier uint64) {
	if sendSeq > m.sendSeq {
		m.sendSeq = sendSeq
	}
	m.fullThrough = m.sendSeq + uint64(replay) + 1
	for r, v := range ack {
		if r >= m.delivered.Len() {
			break
		}
		if v > m.delivered.Get(vclock.ProcessID(r)) {
			m.delivered.Set(vclock.ProcessID(r), v)
		}
	}
	if m.sendSeq > m.delivered.Get(m.rank) {
		m.delivered.Set(m.rank, m.sendSeq)
	}
	if m.cfg.stamped() {
		// No cast at or below the checkpoint needs decoding again, so each
		// stamp chain's head starts there, with its stamp unknown: a delta
		// for the next cast parks until that cast's full clock arrives.
		for r, v := range m.delivered {
			if v > m.reconSeq[r] {
				m.reconSeq[r], m.reconVC[r] = v, nil
			}
		}
	}
	// The dedup frontier (aliased as contig for total orderings, and
	// the source of stability acks) and the known-sent horizon both
	// start from the same resumed state: everything at or below the
	// checkpoint is delivered, and is known to exist.
	m.deliveredIDs.hi.Merge(m.delivered)
	if m.cfg.Atomic {
		m.known.Merge(m.delivered)
	}
	switch m.cfg.Ordering {
	case TotalSeq, TotalCausal:
		if totalFrontier+1 > m.nextGlobal {
			m.nextGlobal = totalFrontier + 1
		}
		if totalFrontier > m.maxGlobalSeen {
			m.maxGlobalSeen = totalFrontier
		}
		if m.seq != nil && m.cfg.Ordering == TotalCausal {
			m.seq.resume(totalFrontier)
		}
	}
}
