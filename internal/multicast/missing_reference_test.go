package multicast

import (
	"sort"

	"catocs/internal/vclock"
)

// referenceMissingSet is the from-scratch missing set eachMissing
// replaced, kept verbatim as the oracle: the ids of messages known to
// exist that this member has neither delivered nor buffered in its
// holdback queue, deduplicated and sorted. Two sources of evidence feed it: the
// dependency stamps of pending (undeliverable) messages, and the
// per-sender "known sent" frontier learned from acks — the latter
// catches a lost message with no successors.
func (m *Member) referenceMissingSet() []MsgID {
	seen := make(map[MsgID]bool)
	var out []MsgID
	add := func(id MsgID) {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	if m.known != nil {
		switch m.cfg.Ordering {
		case TotalSeq, TotalCausal:
			// Total modes deliver across per-sender order, so the
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
					if _, held := m.pendQ[sender][seq]; held {
						continue
					}
					add(MsgID{Sender: sender, Seq: seq})
				}
			}
		}
	}
	for _, shard := range m.pendQ {
		for _, msg := range shard {
			switch m.cfg.Ordering {
			case Causal:
				for _, st := range m.delivered.Missing(msg.VC, msg.Sender) {
					if _, held := m.pendQ[st.Proc][st.Time]; held {
						continue // already arrived, just undeliverable itself
					}
					add(MsgID{Sender: st.Proc, Seq: st.Time})
				}
			case FIFO:
				for s := m.delivered.Get(msg.Sender) + 1; s < msg.Seq; s++ {
					if _, held := m.pendQ[msg.Sender][s]; held {
						continue
					}
					add(MsgID{Sender: msg.Sender, Seq: s})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sender != out[j].Sender {
			return out[i].Sender < out[j].Sender
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}
