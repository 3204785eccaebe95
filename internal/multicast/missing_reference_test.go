package multicast

import (
	"sort"

	"catocs/internal/vclock"
)

// referenceMissingSet is the from-scratch missing set eachMissing
// replaced, kept as the oracle: the ids of messages known to exist that
// this member has neither delivered nor buffered in its holdback queue,
// deduplicated and sorted, less the parked deltas whose predecessor's
// stamp is still outstanding. Two sources of evidence feed it: the
// dependency stamps of pending (undeliverable) messages, and the
// per-sender "known sent" frontier learned from acks and arrivals — the
// latter catches a lost message with no successors.
func (m *Member) referenceMissingSet() []MsgID {
	seen := make(map[MsgID]bool)
	var out []MsgID
	// A parked delta decodes as soon as its predecessor's stamp is known,
	// so while that stamp is outstanding the predecessor's retransmission
	// brings both and the delta itself is not wanted. A parked delta whose
	// predecessor is the chain head with no stamp (ResumeChains skipped
	// it) can only arrive as a full-clock retransmission and is wanted.
	awaitsStamp := func(id MsgID) bool {
		if m.parked == nil || !m.parked[id.Sender].Has(id.Seq) {
			return false
		}
		prev := id.Seq - 1
		return prev > m.reconSeq[id.Sender] && m.aheadAt(id.Sender, prev) == nil
	}
	add := func(id MsgID) {
		if !seen[id] && !awaitsStamp(id) {
			seen[id] = true
			out = append(out, id)
		}
	}
	if m.known != nil {
		switch m.cfg.Ordering {
		case TotalSeq, TotalCausal:
			// The total modes deliver across per-sender order, so the
			// delivered clock is a max, not a count: check each known
			// sequence individually against the delivered set and the
			// arrival buffer.
			for s := range m.known {
				sender := vclock.ProcessID(s)
				// Everything at or below the delivered set's contiguous
				// frontier is delivered; only the tail needs checking.
				for seq := m.deliveredIDs.Frontier(sender) + 1; seq <= m.known.Get(sender); seq++ {
					id := MsgID{Sender: sender, Seq: seq}
					if m.deliveredIDs.Has(id) {
						continue
					}
					if _, arrived := m.dataGet(id); arrived {
						continue
					}
					add(id)
				}
			}
		default:
			for s := range m.known {
				sender := vclock.ProcessID(s)
				for seq := m.delivered.Get(sender) + 1; seq <= m.known.Get(sender); seq++ {
					if m.pendQ[sender].Has(seq) {
						continue
					}
					add(MsgID{Sender: sender, Seq: seq})
				}
			}
		}
	}
	for r := range m.pendQ {
		m.pendQ[r].Ascend(func(_ uint64, msg *DataMsg) bool {
			switch m.cfg.Ordering {
			case Causal:
				for _, st := range m.delivered.Missing(msg.VC, msg.Sender) {
					if m.pendQ[st.Proc].Has(st.Time) {
						continue // already arrived, just undeliverable itself
					}
					add(MsgID{Sender: st.Proc, Seq: st.Time})
				}
			case FIFO:
				for s := m.delivered.Get(msg.Sender) + 1; s < msg.Seq; s++ {
					if m.pendQ[msg.Sender].Has(s) {
						continue
					}
					add(MsgID{Sender: msg.Sender, Seq: s})
				}
			}
			return true
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sender != out[j].Sender {
			return out[i].Sender < out[j].Sender
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// referenceAssignedGlobalOf is the lookup the sequencer's log index
// replaced, kept as the oracle: a scan of the live log.
func (s *sequencer) referenceAssignedGlobalOf(id MsgID) (g uint64, found bool) {
	s.log.Ascend(func(at uint64, logged MsgID) bool {
		g, found = at, logged == id
		return !found
	})
	return g, found
}

// logIDs returns the sequencer's live assignment log: the position of
// its first id (0 when the log is empty) and the ids by position.
func (s *sequencer) logIDs() (base uint64, ids []MsgID) {
	base, _ = s.log.Min()
	s.log.Ascend(func(_ uint64, id MsgID) bool {
		ids = append(ids, id)
		return true
	})
	return base, ids
}
