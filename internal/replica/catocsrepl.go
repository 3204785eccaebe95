// Package replica implements both replicated-data designs §4.4
// contrasts:
//
//   - CatocsGroup (this file): Deceit-style replication over causal
//     atomic multicast. A primary updater multicasts writes with a
//     configurable "write safety level" k: completion is reported
//     after k replica acknowledgements. k=0 is fully asynchronous —
//     and non-durable: a primary crash after local delivery silently
//     loses the update, the §2/§4.4 durability anomaly. k>=1 makes the
//     write effectively synchronous, which is the paper's point about
//     the claimed asynchrony advantage evaporating.
//   - TxGroup (txrepl.go): HARP-style replication as optimized atomic
//     transactions with a read-any/write-all-available protocol:
//     writes 2PC to every available replica, failed replicas are
//     dropped from the availability list at commit, and concurrent
//     updaters proceed in parallel because concurrency control is
//     already there.
package replica

import (
	"time"

	"catocs/internal/metrics"
	"catocs/internal/multicast"
	"catocs/internal/state"
	"catocs/internal/transport"
	"catocs/internal/vclock"
)

// ReplWrite is the replicated update payload multicast by the primary.
type ReplWrite struct {
	Key   string
	Value any
}

// ApproxSize implements transport.Sizer: the size the primary also
// reports to Multicast, so direct sends and multicast accounting
// agree.
func (w ReplWrite) ApproxSize() int { return 16 + len(w.Key) }

// WriteAck is a replica's acknowledgement of applying a write, sent
// point-to-point back to the primary for the write-safety count.
type WriteAck struct {
	ID   multicast.MsgID
	From vclock.ProcessID
}

// ApproxSize implements transport.Sizer.
func (WriteAck) ApproxSize() int { return 32 }

// CatocsReplica is one member of a cbcast-replicated store.
type CatocsReplica struct {
	member *multicast.Member
	store  *state.Store
	net    transport.Network
	// Primary-side pending writes awaiting safety acks.
	pending map[multicast.MsgID]*pendingWrite
	// WriteSafety is the number of replica acks required before a
	// write completes (Deceit's "write safety level").
	writeSafety int

	Applied      metrics.Counter
	WriteLatency metrics.Histogram // seconds, primary only
}

type pendingWrite struct {
	need    int
	got     map[vclock.ProcessID]bool
	started time.Duration
	onDone  func()
	done    bool
}

// NewCatocsGroup builds a cbcast-replicated store of n replicas on
// net. Rank 0 is the primary updater (CATOCS provides no concurrency
// control, so a single updater is forced — the §4.4 "trading
// concurrency for asynchrony" point). writeSafety is k.
func NewCatocsGroup(net transport.Network, nodes []transport.NodeID, writeSafety int) []*CatocsReplica {
	replicas := make([]*CatocsReplica, len(nodes))
	for i := range nodes {
		replicas[i] = &CatocsReplica{
			store:       state.NewStore(),
			net:         net,
			pending:     make(map[multicast.MsgID]*pendingWrite),
			writeSafety: writeSafety,
		}
	}
	cfg := multicast.Config{Group: "replica", Ordering: multicast.Causal, Atomic: true}
	members := multicast.NewGroup(net, nodes, cfg, func(rank vclock.ProcessID) multicast.DeliverFunc {
		r := replicas[rank]
		return func(d multicast.Delivered) { r.onDeliver(d) }
	})
	for i := range replicas {
		replicas[i].member = members[i]
		// The ack path shares the node via the surrounding mux.
		net.Register(nodes[i], replicas[i].handleAck)
	}
	return replicas
}

// Member exposes the underlying group endpoint.
func (r *CatocsReplica) Member() *multicast.Member { return r.member }

// Store exposes the replica's local store.
func (r *CatocsReplica) Store() *state.Store { return r.store }

// Write multicasts an update from this replica (call on the primary
// only). onDone fires when the write reaches the configured safety
// level; with writeSafety == 0 it fires immediately — asynchronous and
// unsafe.
func (r *CatocsReplica) Write(key string, value any, onDone func()) multicast.MsgID {
	id := r.member.Multicast(&ReplWrite{Key: key, Value: value}, 16+len(key))
	if r.writeSafety <= 0 {
		if onDone != nil {
			onDone()
		}
		return id
	}
	r.pending[id] = &pendingWrite{
		need:    r.writeSafety,
		got:     make(map[vclock.ProcessID]bool),
		started: r.net.Now(),
		onDone:  onDone,
	}
	return id
}

// onDeliver applies the replicated write and acknowledges to the
// write's origin.
func (r *CatocsReplica) onDeliver(d multicast.Delivered) {
	w, ok := d.Payload.(*ReplWrite)
	if !ok {
		return
	}
	r.store.Put(w.Key, w.Value)
	r.Applied.Inc()
	if d.ID.Sender != r.member.Rank() {
		// Ack to the sender's node.
		nodes := r.member.ViewNodes()
		r.net.Send(r.member.Node(), nodes[d.ID.Sender], WriteAck{ID: d.ID, From: r.member.Rank()})
	}
}

// handleAck counts safety acknowledgements on the primary.
func (r *CatocsReplica) handleAck(_ transport.NodeID, payload any) {
	ack, ok := payload.(WriteAck)
	if !ok {
		return
	}
	pw, ok := r.pending[ack.ID]
	if !ok || pw.done || pw.got[ack.From] {
		return
	}
	pw.got[ack.From] = true
	if len(pw.got) >= pw.need {
		pw.done = true
		delete(r.pending, ack.ID)
		r.WriteLatency.ObserveDuration(r.net.Now() - pw.started)
		if pw.onDone != nil {
			pw.onDone()
		}
	}
}
