// Package causalgraph maintains the "active causal graph" of Section 5
// of the paper: nodes are unstable messages, arcs connect potentially
// causally related pairs. The paper argues the number of arcs grows
// quadratically in the number of messages (and so in the number of
// processes at fixed per-process rate), driving the buffering and
// bookkeeping costs of CATOCS.
//
// Experiment E6 instantiates one Graph as an omniscient observer of a
// running group, adds each multicast with its dependency stamp, prunes
// at the stability frontier, and censuses nodes and arcs over time.
// Arc counting is exact: a pair (a, b) is counted when a's stamp
// happens-before b's. The census recomputes pairwise, which is O(n²)
// in active messages — acceptable for an instrument, and it keeps the
// count honest rather than approximated.
package causalgraph

import (
	"catocs/internal/vclock"
)

// MsgID identifies a message; multicast.MsgID is the same type.
type MsgID = vclock.MsgID

// Graph is the active causal graph.
type Graph struct {
	active map[MsgID]vclock.VC
	// Lifetime counters.
	added  uint64
	pruned uint64
	// High-water marks.
	peakNodes int
	peakArcs  int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{active: make(map[MsgID]vclock.VC)}
}

// Add inserts a message with its causal dependency stamp. Duplicate
// ids are ignored.
func (g *Graph) Add(id MsgID, stamp vclock.VC) {
	if _, ok := g.active[id]; ok {
		return
	}
	g.active[id] = stamp.Clone()
	g.added++
	if len(g.active) > g.peakNodes {
		g.peakNodes = len(g.active)
	}
}

// Prune removes every active message at or below the stability
// frontier: message (s, q) leaves when q <= frontier[s]. It returns
// the number removed.
func (g *Graph) Prune(frontier vclock.VC) int {
	removed := 0
	for id := range g.active {
		if id.Seq <= frontier.Get(id.Sender) {
			delete(g.active, id)
			removed++
		}
	}
	g.pruned += uint64(removed)
	return removed
}

// Census returns the current node and arc counts. Arcs are ordered
// pairs (a, b) of active messages with a's stamp happening-before b's —
// the full potential-causality relation, matching the paper's
// transitive DAG accounting.
func (g *Graph) Census() (nodes, arcs int) {
	nodes = len(g.active)
	stamps := make([]vclock.VC, 0, nodes)
	for _, s := range g.active {
		stamps = append(stamps, s)
	}
	for i := 0; i < len(stamps); i++ {
		for j := 0; j < len(stamps); j++ {
			if i == j {
				continue
			}
			if stamps[i].HappensBefore(stamps[j]) {
				arcs++
			}
		}
	}
	if arcs > g.peakArcs {
		g.peakArcs = arcs
	}
	return nodes, arcs
}

// Added returns the lifetime number of messages inserted.
func (g *Graph) Added() uint64 { return g.added }

// Pruned returns the lifetime number of messages removed as stable.
func (g *Graph) Pruned() uint64 { return g.pruned }

// PeakNodes returns the maximum simultaneous active message count.
func (g *Graph) PeakNodes() int { return g.peakNodes }

// PeakArcs returns the maximum arc count seen by any census.
func (g *Graph) PeakArcs() int { return g.peakArcs }
