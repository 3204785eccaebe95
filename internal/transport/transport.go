// Package transport provides the point-to-point message substrate the
// CATOCS stack and its state-level rivals run over.
//
// Two implementations share one interface:
//
//   - SimNet runs on the deterministic discrete-event kernel
//     (internal/sim) with per-link delay, jitter, loss, duplication,
//     partitions, and crash injection. All experiments use it.
//     Payloads travel as Go values; the ordering protocols attach their
//     headers as struct fields, and ApproxSize charges each one the
//     bytes its wire codec would write.
//   - tcpnet (internal/transport/tcpnet) carries the same payloads
//     over real TCP sockets through the internal/wire codec, showing
//     the protocol code serves as a library outside the simulator.
//
// The unit of addressing is a dense NodeID assigned by the caller.
//
// Both share one threading contract, stated on Network: a node is an
// event-driven state machine that handles one event at a time, so the
// protocol members above this package take no lock.
package transport

import (
	"time"

	"catocs/internal/obs"
	"catocs/internal/wire"
)

// NodeID identifies an endpoint on a Network. IDs are small dense
// integers; the group layer maps them to vclock.ProcessID.
type NodeID int

// Handler receives a delivered payload. It runs in the network's
// dispatch context (see Network).
type Handler func(from NodeID, payload any)

// Network is the substrate interface protocols are written against.
//
// Threading contract: every Handler and every After callback of the
// nodes registered on one Network runs in a single dispatch context,
// one at a time — the kernel goroutine for SimNet, the Net's
// dispatcher goroutine for tcpnet. A node therefore never sees a
// delivery and a timer concurrently, and its state needs no lock. Code
// outside that context reaches a member between kernel steps (SimNet)
// or through tcpnet.Net.Inject.
type Network interface {
	// Register installs the delivery handler for a node. Must be called
	// before any message is sent to that node.
	Register(id NodeID, h Handler)
	// Send transmits payload from one node to another, subject to the
	// network's delay/loss model. Send never blocks: when the
	// destination's queue is full the message is dropped and counted
	// (SimNet mailbox overflow, tcpnet outbound-queue
	// overflow), never back-pressured into the caller — protocols
	// recover losses through their own ack/retransmit machinery, and
	// callers that want to react to congestion before it sheds poll an
	// admission signal (tcpnet.Net.Backpressured, flowcontrol.Budget)
	// instead of blocking.
	Send(from, to NodeID, payload any)
	// Now returns the network's notion of current time (virtual for
	// SimNet, wall for tcpnet).
	Now() time.Duration
	// After schedules f after d on the network's clock. f runs in the
	// same dispatch context as the handlers.
	After(d time.Duration, f func())
}

// Sizer is implemented by payloads with no wire codec that can report
// an approximate encoded size in bytes; used by traffic-volume
// metrics. A payload with a registered wire kind is sized by its codec
// instead (see ApproxSize).
type Sizer interface {
	ApproxSize() int
}

// ForwardMarker is implemented by payloads that may be relayed on
// behalf of another origin (overlay dissemination). A payload reporting
// Forwarded() == true counts against the relaying node's forwarded-
// message counter rather than as an origin send.
type ForwardMarker interface {
	Forwarded() bool
}

// ControlSize is the control-metadata bytes of a payload: for a
// registered wire kind, its encoded length minus the application
// payload; else its whole ApproxSize — a payload without a codec
// cannot distinguish application bytes, so it is all header as far as
// the overhead census is concerned.
func ControlSize(payload any) int {
	_, ctrl := sizes(payload)
	return ctrl
}

// sizes returns ApproxSize and ControlSize of payload from one lookup.
func sizes(payload any) (size, ctrl int) {
	if n, app, ok := wire.Size(payload); ok {
		return n, n - app
	}
	size = 64
	if s, ok := payload.(Sizer); ok {
		size = s.ApproxSize()
	}
	return size, size
}

// isForwarded reports whether a payload is a relayed copy.
func isForwarded(payload any) bool {
	f, ok := payload.(ForwardMarker)
	return ok && f.Forwarded()
}

// ApproxSize is the wire size of a payload: for a registered wire kind,
// exactly the body length its codec writes (wire.Size); else its own
// report if it implements Sizer, else a flat per-message estimate
// standing in for a small header-only packet.
func ApproxSize(payload any) int {
	size, _ := sizes(payload)
	return size
}

// Stats aggregates network-level counters. SimNet and tcpnet expose
// it; the experiment harness reads it for message-census columns.
type Stats struct {
	Sent       uint64 // Send calls accepted
	Delivered  uint64 // payloads handed to handlers
	Dropped    uint64 // lost to the loss model, partitions, or crashes
	Duplicated uint64 // extra copies injected by the duplication model
	Bytes      uint64 // encoded body bytes (ApproxSize) over delivered payloads
	// CtrlBytes is the ControlSize sum over accepted sends: the wire
	// bytes spent on protocol metadata rather than application payload.
	// Counted at send time (the sender pays for the header whether or
	// not the loss model eats the packet).
	CtrlBytes uint64
	// Forwarded counts accepted sends whose payload was a relayed copy
	// (ForwardMarker); overlay dissemination forwards on intermediate
	// hops, which end-to-end counters alone would misattribute.
	Forwarded uint64
}

// NodeStats are the per-node counters SimNet and tcpnet maintain
// alongside the aggregate Stats; all counts attribute to the sending
// node.
type NodeStats struct {
	Sent      uint64 // Send calls accepted from this node
	CtrlBytes uint64 // control-metadata bytes this node put on the wire
	Forwarded uint64 // relayed copies this node sent
}

// obsSink is SimNet's optional observability wiring: a causal trace recorder for per-message wire events and a labeled
// metrics registry that subsumes the Stats/NodeStats counters with
// {substrate, node, kind} labels. The zero sink is inactive and costs
// the hot path two nil checks.
type obsSink struct {
	tracer    *obs.Tracer
	reg       *obs.Registry
	substrate string
}

// onWireRecv records a payload's arrival at a node: a trace
// wire-receive event (when the payload can name its message) and the
// delivered/bytes registry counters.
func (s *obsSink) onWireRecv(at time.Duration, to NodeID, payload any, size int) {
	if s.tracer != nil && s.tracer.WantsWire(payload) {
		if ref, ok := obs.RefOf(payload); ok {
			s.tracer.WireRecv(at, int(to), ref)
		}
	}
	if s.reg != nil {
		s.reg.Counter(s.substrate, int(to), "delivered").Inc()
		s.reg.Counter(s.substrate, int(to), "bytes").Add(uint64(size))
	}
}

// onDrop counts a dropped packet against the node it was headed to.
func (s *obsSink) onDrop(to NodeID) {
	if s.reg != nil {
		s.reg.Counter(s.substrate, int(to), "dropped").Inc()
	}
}

// accountSend updates aggregate and per-node counters for one accepted
// send of ctrl control bytes. Used by SimNet.
func accountSend(stats *Stats, perNode map[NodeID]*NodeStats, from NodeID, payload any, ctrl uint64, sink *obsSink) {
	stats.Sent++
	stats.CtrlBytes += ctrl
	fwd := isForwarded(payload)
	if fwd {
		stats.Forwarded++
	}
	ns := perNode[from]
	if ns == nil {
		ns = &NodeStats{}
		perNode[from] = ns
	}
	ns.Sent++
	ns.CtrlBytes += ctrl
	if fwd {
		ns.Forwarded++
	}
	if sink.reg != nil {
		sink.reg.Counter(sink.substrate, int(from), "sent").Inc()
		sink.reg.Counter(sink.substrate, int(from), "ctrl_bytes").Add(ctrl)
		if fwd {
			sink.reg.Counter(sink.substrate, int(from), "forwarded").Inc()
		}
	}
}
