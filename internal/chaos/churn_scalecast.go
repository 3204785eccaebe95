package chaos

import (
	"slices"

	"catocs/internal/multicast"
	"catocs/internal/obs"
	"catocs/internal/scalecast"
	"catocs/internal/state"
	"catocs/internal/transport"
	"catocs/internal/vclock"
)

// rewireWorld drives the churn schedules over the scalecast substrate —
// the E24 comparison arm. Scalecast has no membership protocol:
// reconfiguration is an operator-driven Rewire of every member to the
// new node list, applied here at the op's scheduled time (an
// omniscient operator — zero detection latency, the best case for
// scalecast). The consequences the experiment measures:
//
//   - No state transfer. A joiner observes the causal future only;
//     TransferBytes is structurally zero. Rebuilding state is the
//     application's job — the paper's §4.4 position, taken to its
//     limit.
//   - No crash recovery. A recovered process re-enters via JoinMember
//     as an empty replica: its WAL-less pre-crash casts are gone and
//     its store restarts blank. Store equivalence therefore CANNOT be
//     an oracle here, and the world checks none — this arm measures
//     cost, not safety (scalecast's own invariants are E16/E18's job).
//   - Metadata is per-link, not per-view. FlushMsgs reports the sum of
//     control messages (acks, nacks, barriers, heartbeats) over the
//     whole run; callers subtract a no-churn control run to isolate
//     the reconfiguration cost, since link maintenance is nonzero even
//     in steady state.
//
// Epochs counts applied reconfigurations, so MetadataPerEpoch divides
// comparably with the churn world's.
type rewireWorld struct {
	churnBase
	sccfg     scalecast.Config
	view      []transport.NodeID
	members   []*scalecast.Member // every member ever built: a rewire closes departed ones
	reconfigs uint64
}

func newRewireWorld(e *episode) *rewireWorld {
	w := &rewireWorld{churnBase: newChurnBase(e, "scalecast"), view: slices.Clone(e.nodes)}
	w.sccfg = scalecast.Config{Group: "churn", Degree: e.cfg.Degree, Tracer: e.tracer}
	for _, id := range e.nodes {
		w.newNode(id).up = true
	}
	w.members = scalecast.NewGroup(w.net, e.nodes, w.sccfg, func(rank vclock.ProcessID) multicast.DeliverFunc {
		return w.nodes[transport.NodeID(rank)].deliver // initial rank == node id
	})
	for i, m := range w.members {
		ns := w.nodes[e.nodes[i]]
		ns.sc = m
		w.senders = append(w.senders, ns)
	}
	return w
}

func (w *rewireWorld) newNode(id transport.NodeID) *churnNode {
	ns := w.addNode(id, nil)
	ns.send = func(p []byte) { ns.sc.Multicast(p, len(p)) }
	return ns
}

// rewire moves the view to the op's outcome and the operator re-wires
// every member to it.
func (w *rewireWorld) rewire(view []transport.NodeID) {
	w.view = view
	for _, m := range w.members {
		m.Rewire(view) // Rewire and JoinMember copy the list
	}
	w.reconfigs++
}

// join enters ns as a fresh scalecast member of the view plus ns.
func (w *rewireWorld) join(ns *churnNode) {
	view := append(w.view, ns.id)
	slices.Sort(view)
	ns.sc = scalecast.JoinMember(w.net, view, ns.id, w.sccfg, ns.deliver)
	w.members = append(w.members, ns.sc)
	w.rewire(view)
	ns.up = true
}

func (w *rewireWorld) apply(op Op) {
	ns := w.nodes[op.Node]
	without := func(id transport.NodeID) []transport.NodeID {
		return slices.DeleteFunc(w.view, func(v transport.NodeID) bool { return v == id })
	}
	switch op.Kind {
	case OpCrash:
		if ns == nil || !ns.up {
			return
		}
		w.net.Crash(ns.id)
		ns.sc.Close()
		ns.up = false
		w.rewire(without(ns.id)) // the operator routes around the dead node
	case OpRecover:
		if ns == nil || ns.up {
			return
		}
		w.net.Recover(ns.id)
		// Re-entry is a fresh JoinMember: no WAL, no transfer — the
		// store restarts empty and pre-crash casts are lost.
		ns.app = state.NewStore()
		ns.inc++
		w.join(ns)
	case OpJoin:
		if ns != nil {
			return
		}
		w.join(w.newNode(op.Node))
	case OpLeave:
		if ns == nil || !ns.up {
			return
		}
		w.rewire(without(ns.id)) // the departing member is in members: its rewire closes it
		ns.up = false
		delete(w.nodes, ns.id)
	default:
		w.netOp(op)
	}
}

func (w *rewireWorld) finish(_ []obs.Event, res *Result) {
	res.Delivered, res.Dups = w.applied, w.dups
	res.Epochs = w.reconfigs
	for _, m := range w.members {
		res.FlushMsgs += m.CtrlMsgs.Value()
	}
}
