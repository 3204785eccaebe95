package replica

import (
	"catocs/internal/metrics"
	"catocs/internal/state"
	"catocs/internal/transact"
	"catocs/internal/transport"
)

// TxGroup is HARP-style transactional replication: a coordinator runs
// two-phase commit across every replica on the availability list; a
// replica that fails to vote in time causes an abort, is dropped from
// the list (provided no read locks were held there — our workload
// reads at the coordinator), and the write retries against the
// survivors. Reads go to any available replica.
type TxGroup struct {
	net          transport.Network
	coord        *transact.Coordinator
	participants map[transport.NodeID]*transact.Participant
	avail        []transport.NodeID

	Commits    metrics.Counter
	Retries    metrics.Counter
	Dropped    metrics.Counter
	WriteLatMs metrics.Histogram
}

// NewTxGroup builds a transactional replica group. coordNode must be
// distinct from the replica nodes.
func NewTxGroup(net transport.Network, coordNode transport.NodeID, replicaNodes []transport.NodeID) *TxGroup {
	g := &TxGroup{
		net:          net,
		coord:        transact.NewCoordinator(net, coordNode),
		participants: make(map[transport.NodeID]*transact.Participant),
		avail:        append([]transport.NodeID(nil), replicaNodes...),
	}
	for _, n := range replicaNodes {
		g.participants[n] = transact.NewParticipant(net, n, state.NewStore())
	}
	return g
}

// Coordinator exposes the underlying 2PC coordinator (for timeout
// tuning in experiments).
func (g *TxGroup) Coordinator() *transact.Coordinator { return g.coord }

// Available returns the current availability list.
func (g *TxGroup) Available() []transport.NodeID {
	return append([]transport.NodeID(nil), g.avail...)
}

// StoreAt returns a replica's local store (reads are "read-any").
func (g *TxGroup) StoreAt(node transport.NodeID) *state.Store {
	if p, ok := g.participants[node]; ok {
		return p.Store()
	}
	return nil
}

// Read returns the value from the first available replica.
func (g *TxGroup) Read(key string) (any, bool) {
	for _, n := range g.avail {
		if p := g.participants[n]; p != nil {
			if v, _, ok := p.Store().Get(key); ok {
				return v, true
			}
		}
	}
	return nil, false
}

// Write commits key=value at every available replica. If the
// transaction aborts on a participant timeout (crash), the group drops
// non-voting replicas from the availability list and retries once —
// the §4.4 optimization that matches CATOCS failure behaviour while
// keeping grouped atomic updates. onDone reports final success.
func (g *TxGroup) Write(key string, value any, onDone func(ok bool)) {
	g.writeAttempt(key, value, onDone, true)
}

func (g *TxGroup) writeAttempt(key string, value any, onDone func(ok bool), mayRetry bool) {
	started := g.net.Now()
	writes := make(map[transport.NodeID][]transact.Write, len(g.avail))
	for _, n := range g.avail {
		writes[n] = []transact.Write{{Key: key, Value: value}}
	}
	attempt := append([]transport.NodeID(nil), g.avail...)
	g.coord.Run(writes, func(o transact.Outcome) {
		if o.Committed {
			g.Commits.Inc()
			g.WriteLatMs.Observe(float64((g.net.Now() - started).Microseconds()) / 1000.0)
			if onDone != nil {
				onDone(true)
			}
			return
		}
		if !mayRetry {
			if onDone != nil {
				onDone(false)
			}
			return
		}
		// Drop replicas that never answered (presumed crashed) and retry
		// against the survivors.
		g.dropUnresponsive(attempt, o)
		g.Retries.Inc()
		if len(g.avail) == 0 {
			if onDone != nil {
				onDone(false)
			}
			return
		}
		g.writeAttempt(key, value, onDone, false)
	})
}

// dropUnresponsive removes replicas from the availability list. The
// coordinator's Outcome does not name non-voters, so the group probes:
// any replica whose store never received the transaction's prepare is
// assumed crashed. In this in-process setting we approximate by
// consulting the transport's crash status when available.
func (g *TxGroup) dropUnresponsive(attempted []transport.NodeID, _ transact.Outcome) {
	type crasher interface{ Crashed(transport.NodeID) bool }
	c, ok := g.net.(crasher)
	var live []transport.NodeID
	for _, n := range attempted {
		if ok && c.Crashed(n) {
			g.Dropped.Inc()
			continue
		}
		live = append(live, n)
	}
	// If crash status is unavailable (e.g. tcpnet), keep the list: the
	// retry will time out again and the caller sees the failure.
	if ok {
		g.avail = live
	}
}
