// Package scalecast implements causal broadcast with constant-size
// per-message control metadata — the modern answer to the paper's §5
// scalability critique of CATOCS, and the second broadcast substrate
// this repository measures CBCAST against (experiment E16).
//
// The CBCAST stack in internal/multicast stamps every message with a
// vector clock: O(N) header bytes per message plus O(N) unstable-state
// buffering, which is exactly the growth §5 charges against causally
// ordered communication. Nédelec et al. ("Breaking the Scalability
// Barrier of Causal Broadcast for Large and Dynamic Systems") and
// Almeida ("Space-Optimal Causal Delivery through Hybrid Buffering")
// observe that the clocks are redundant once dissemination itself is
// constrained: flood messages over a connected bounded-degree overlay
// of reliable FIFO links, forward every first-received message to all
// neighbours before delivering it, and causal order falls out of the
// topology. The wire then carries only (origin, sequence) — constant
// in group size.
//
// The package has three layers plus a façade:
//
//   - overlay.go builds a bounded-degree circulant overlay over a
//     transport.Network node set, with deterministic neighbour
//     selection and join/leave re-wiring.
//   - flood.go makes each overlay link a reliable FIFO channel over
//     the lossy transport: per-link sessions and sequence numbers,
//     out-of-order holdback, NACK-driven retransmission from per-link
//     send logs, heartbeats for lost-tail detection, and cumulative
//     acks that prune the logs (the hybrid buffer: retransmission
//     state lives per link and drains at ack round-trips, not at
//     group-wide stability).
//   - buffer.go handles reconfiguration: a link added by a re-wire
//     buffers inbound traffic until a causal barrier — flooded over
//     the pre-existing overlay — is delivered, so a new shortcut can
//     never deliver a message ahead of its causal past (Almeida's
//     "buffer only around topology changes").
//
// The Member façade mirrors internal/multicast.Member (Multicast,
// Close, PendingCount, the same metrics fields, multicast.Delivered
// callbacks), so the experiment harness and applications run
// unmodified on either substrate.
package scalecast

import (
	"fmt"
	"sort"
	"time"

	"catocs/internal/flowcontrol"
	"catocs/internal/metrics"
	"catocs/internal/multicast"
	"catocs/internal/obs"
	"catocs/internal/transport"
	"catocs/internal/vclock"
)

// Config parameterizes a scalecast group.
type Config struct {
	// Group names the group; members ignore traffic for other groups.
	Group string
	// Degree is the target overlay degree (rounded down to an even
	// count of circulant offsets). Zero defaults to 4: the ±1 ring plus
	// a ±√N chord, giving O(√N) dissemination diameter at constant
	// per-node fan-out.
	Degree int
	// AckInterval is the delay before a member acknowledges per-link
	// delivery progress (prunes the peer's retransmission log). Zero
	// defaults to 20ms.
	AckInterval time.Duration
	// NackDelay is how long a detected per-link gap may age before the
	// member requests retransmission. Zero defaults to 25ms.
	NackDelay time.Duration
	// Heartbeat is the interval at which a member with unacknowledged
	// link traffic (or an unacknowledged barrier) re-advertises it, so
	// a lost final packet is eventually recovered. Zero defaults to
	// 40ms.
	Heartbeat time.Duration
	// Tracer, when non-nil, records the member's message lifecycle
	// (send, holdback, deliver) and reconfiguration spans into the
	// causal trace recorder. The causal context stamped on events is
	// the member's barrier epoch (its link-session counter), the
	// scalecast analogue of CBCAST's vector clock. Nil disables
	// tracing at nil-check cost.
	Tracer *obs.Tracer
	// Budget bounds the member's total link retransmission buffer (the
	// hybrid buffer E16 measures), counted across all links. Zero is
	// unlimited.
	Budget flowcontrol.Budget
	// Overflow selects the overlay-ingress reaction when the budget is
	// reached: Block parks this member's own casts until link acks
	// prune the logs; Shed rejects them counted and traced. Spill and
	// Suspect degrade to Block — scalecast keeps no group-wide
	// stability matrix to spill against or accuse from. Relayed
	// traffic is always admitted: forwarding is mandatory for causal
	// order, so only the origin's own offered load is throttled.
	Overflow flowcontrol.Policy
}

func (c Config) ackInterval() time.Duration {
	if c.AckInterval > 0 {
		return c.AckInterval
	}
	return 20 * time.Millisecond
}

func (c Config) nackDelay() time.Duration {
	if c.NackDelay > 0 {
		return c.NackDelay
	}
	return 25 * time.Millisecond
}

func (c Config) heartbeat() time.Duration {
	if c.Heartbeat > 0 {
		return c.Heartbeat
	}
	return 40 * time.Millisecond
}

func (c Config) degree() int {
	if c.Degree > 0 {
		return c.Degree
	}
	return 4
}

// futureEntry is a defensively buffered flood message that arrived
// ahead of its per-origin predecessor (possible only transiently around
// reconfiguration), remembered with its source link for forwarding.
type futureEntry struct {
	msg  *FloodMsg
	from transport.NodeID
}

// originKey identifies one broadcast for the future buffer.
type originKey struct {
	origin transport.NodeID
	seq    uint64
}

// Member is one endpoint of a scalecast group. Like multicast.Member
// it takes no lock: its handler and timers run in the network's single
// dispatch context (transport.Network). Delivery callbacks run at the
// end of each protocol step (via a small outbox), so a callback sees
// the member between steps and may re-enter Multicast — the reactive
// idiom the causal tests rely on.
type Member struct {
	cfg     Config
	net     transport.Network
	nodes   []transport.NodeID // current view, defines the overlay
	self    transport.NodeID
	deliver multicast.DeliverFunc
	outbox  []multicast.Delivered // deliveries pending callback, flushed after each step
	closed  bool

	originSeq uint64 // my broadcast counter

	// delivered is the contiguous per-origin delivered count — the
	// only per-peer state, and it is delivery bookkeeping, not wire
	// metadata.
	delivered map[transport.NodeID]uint64
	// externalDeliveries counts deliveries of other origins' messages;
	// zero means this member is "fresh" (its out-streams carry its
	// entire causal history, the join fast-path of buffer.go).
	externalDeliveries uint64

	links     map[transport.NodeID]*link
	order     []transport.NodeID // sorted link peers, for determinism
	sessionNo uint64             // monotonic per-member link session source

	future map[originKey]futureEntry

	ackArmed  bool
	nackArmed bool
	hbArmed   bool

	// blocked holds this member's own casts parked at the ingress
	// admission window (flowcontrol.go).
	blocked []blockedFlood

	// Instrumentation; field names mirror multicast.Member so the
	// harness reads either substrate identically.
	Latency        metrics.Histogram // delivery latency (seconds)
	HoldbackGauge  metrics.Gauge     // link holdback + reconfig buffers
	DeliveredCount metrics.Counter
	SentCount      metrics.Counter
	CtrlMsgs       metrics.Counter   // protocol (non-data) messages sent
	Duplicates     metrics.Counter   // duplicate data copies discarded
	ForwardedMsgs  metrics.Counter   // data copies relayed for other origins
	AdmissionStall metrics.Histogram // ingress-window stall (seconds)
	ShedCount      metrics.Counter   // casts rejected by the Shed policy

	trace *obs.Tracer // optional lifecycle recorder (Config.Tracer)
}

// NewMember creates one group endpoint with active links to its
// overlay neighbours and registers its handler on the network. Use it
// when constructing a whole group before traffic starts; a process
// entering a running group must use JoinMember so its links perform
// the causal-barrier handshake.
func NewMember(net transport.Network, nodes []transport.NodeID, self transport.NodeID, cfg Config, deliver multicast.DeliverFunc) *Member {
	return newMember(net, nodes, self, cfg, deliver, false)
}

// JoinMember creates an endpoint entering an already-running group:
// its overlay links come up buffering (pending) and activate through
// the barrier protocol, so the joiner cannot deliver causally out of
// order during the wiring-in window. The surviving members must be
// re-wired to the same view (Rewire) for the overlay to converge. A
// joiner observes the causal future only: messages broadcast before
// its links activate are not replayed (state transfer is the
// application's job, as in internal/group).
func JoinMember(net transport.Network, nodes []transport.NodeID, self transport.NodeID, cfg Config, deliver multicast.DeliverFunc) *Member {
	return newMember(net, nodes, self, cfg, deliver, true)
}

func newMember(net transport.Network, nodes []transport.NodeID, self transport.NodeID, cfg Config, deliver multicast.DeliverFunc, joining bool) *Member {
	if deliver == nil {
		deliver = func(multicast.Delivered) {}
	}
	m := &Member{
		cfg:       cfg,
		net:       net,
		nodes:     append([]transport.NodeID(nil), nodes...),
		self:      self,
		deliver:   deliver,
		delivered: make(map[transport.NodeID]uint64),
		links:     make(map[transport.NodeID]*link),
		future:    make(map[originKey]futureEntry),
		trace:     cfg.Tracer,
	}
	if m.rank() < 0 {
		panic(fmt.Sprintf("scalecast: node %d not in view %v", self, nodes))
	}
	for _, peer := range overlayNeighbors(m.nodes, self, cfg.degree()) {
		m.addLink(peer, joining)
	}
	net.Register(self, m.Handle)
	return m
}

// NewGroup builds a full group of len(nodes) members. deliverFor
// supplies each rank's delivery callback (may return nil for a sink).
func NewGroup(net transport.Network, nodes []transport.NodeID, cfg Config, deliverFor func(rank vclock.ProcessID) multicast.DeliverFunc) []*Member {
	members := make([]*Member, len(nodes))
	for i, id := range nodes {
		var d multicast.DeliverFunc
		if deliverFor != nil {
			d = deliverFor(vclock.ProcessID(i))
		}
		members[i] = NewMember(net, nodes, id, cfg, d)
	}
	return members
}

// rank returns this member's index in the current view, or -1.
func (m *Member) rank() int {
	for i, id := range m.nodes {
		if id == m.self {
			return i
		}
	}
	return -1
}

// Rank returns this member's rank in the current view.
func (m *Member) Rank() vclock.ProcessID {
	return vclock.ProcessID(m.rank())
}

// Node returns this member's transport address.
func (m *Member) Node() transport.NodeID { return m.self }

// GroupSize returns the current view size.
func (m *Member) GroupSize() int {
	return len(m.nodes)
}

// ViewNodes returns a copy of the current view's node list.
func (m *Member) ViewNodes() []transport.NodeID {
	return append([]transport.NodeID(nil), m.nodes...)
}

// PendingCount returns the messages currently withheld from delivery:
// link holdback, reconfiguration buffers, and the defensive per-origin
// future buffer. The scalecast analogue of the CBCAST delay queue.
func (m *Member) PendingCount() int {
	n := len(m.future)
	for _, l := range m.links {
		n += len(l.inHold) + len(l.buffered)
	}
	return n
}

// RetransBufferCount returns the messages buffered for possible
// retransmission across all link send logs — the hybrid buffer whose
// occupancy E16 compares against CBCAST's stability buffer.
func (m *Member) RetransBufferCount() int {
	n := 0
	for _, l := range m.links {
		n += len(l.outLog)
	}
	return n
}

// Close permanently silences the member: no further sends, deliveries,
// or timer re-arms.
func (m *Member) Close() { m.closed = true }

// barrierCtx renders the member's causal context for trace events: the
// barrier epoch (link-session counter) is the only ordering state a
// scalecast member carries, where CBCAST stamps a full vector clock.
func (m *Member) barrierCtx() string {
	return fmt.Sprintf("barrier-epoch=%d", m.sessionNo)
}

// addLink creates link state toward peer. pending links buffer inbound
// traffic until the barrier protocol activates them (buffer.go).
func (m *Member) addLink(peer transport.NodeID, pending bool) {
	m.sessionNo++
	l := &link{
		peer:       peer,
		outSession: m.sessionNo,
		outLog:     make(map[uint64]*LinkPacket),
		inHold:     make(map[uint64]*LinkPacket),
		inNext:     1,
		pendingIn:  pending,
		// bornFresh: this link has existed since the member's birth and
		// the member has delivered nothing external, so its out-stream
		// carries its entire causal history (see buffer.go).
		bornFresh: pending && m.externalDeliveries == 0,
	}
	m.links[peer] = l
	m.order = append(m.order, peer)
	sort.Slice(m.order, func(i, j int) bool { return m.order[i] < m.order[j] })
	if pending {
		if m.trace != nil {
			m.trace.SpanBegin(m.net.Now(), int(m.self),
				fmt.Sprintf("link-activation peer=%d", peer))
		}
		l.outCut = make(map[transport.NodeID]uint64, len(m.delivered))
		for id, seq := range m.delivered {
			l.outCut[id] = seq
		}
		m.sendBarriers(l)
	}
}

// dropLink discards all state toward peer.
func (m *Member) dropLink(peer transport.NodeID) {
	delete(m.links, peer)
	for i, id := range m.order {
		if id == peer {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.updateGauge()
}

// updateGauge publishes current holdback occupancy.
func (m *Member) updateGauge() { m.HoldbackGauge.Set(int64(m.PendingCount())) }

// Multicast broadcasts payload (with an approximate encoded size in
// bytes) to the group: the message floods the overlay carrying only
// (origin, seq) — control metadata constant in group size. It returns
// the message id (Sender is the origin's NodeID as a ProcessID).
// Per-origin ids are delivered in strictly increasing order but may
// skip values: protocol-internal barrier broadcasts share the
// sequence space and are never surfaced to the application.
func (m *Member) Multicast(payload any, size int) multicast.MsgID {
	if m.closed || !m.admit(payload, size) {
		return multicast.MsgID{}
	}
	id := m.originate(payload, size)
	m.flush()
	return id
}

// originate stamps and floods a cast the ingress window has cleared
// (or that no window governs).
func (m *Member) originate(payload any, size int) multicast.MsgID {
	m.originSeq++
	fm := &FloodMsg{
		Group:       m.cfg.Group,
		Origin:      m.self,
		Seq:         m.originSeq,
		SentAt:      m.net.Now(),
		Payload:     payload,
		PayloadSize: size,
	}
	m.SentCount.Inc()
	if ref := fm.TraceRef(); m.trace.Wants(ref) {
		m.trace.Send(fm.SentAt, int(m.self), ref, m.barrierCtx())
	}
	// Forward before delivering: the origin's copy goes onto every
	// link ahead of anything the delivery callback may broadcast in
	// reaction, which is the invariant causal order rests on.
	m.forwardFlood(fm, m.self)
	m.deliverLocal(fm)
	return fm.ID()
}

// forwardFlood relays a first-received message to every overlay link
// except the one it arrived on and the origin itself.
func (m *Member) forwardFlood(fm *FloodMsg, from transport.NodeID) {
	relaying := from != m.self
	for _, peer := range m.order {
		if peer == from || peer == fm.Origin {
			continue
		}
		out := *fm
		if relaying {
			out.Hops = fm.Hops + 1
			m.ForwardedMsgs.Inc()
		}
		m.sendOnLink(m.links[peer], &out)
	}
}

// acceptFlood handles a flood message surfacing from a link in FIFO
// order: dedup, forward, deliver, and drain any defensively buffered
// successors.
func (m *Member) acceptFlood(fm *FloodMsg, from transport.NodeID) {
	next := m.delivered[fm.Origin] + 1
	if fm.Seq < next {
		m.Duplicates.Inc()
		return
	}
	if fm.Seq > next {
		// Out of per-origin order: impossible over steady-state FIFO
		// links, defensively buffered around reconfigurations.
		key := originKey{fm.Origin, fm.Seq}
		if _, dup := m.future[key]; !dup {
			m.future[key] = futureEntry{msg: fm, from: from}
			m.updateGauge()
			if m.trace != nil {
				m.trace.Holdback(m.net.Now(), int(m.self), fm.TraceRef(), "future origin gap")
			}
		}
		return
	}
	// A redundant copy of this very seq may sit in the future buffer
	// (arrived early on another link); it is superseded now.
	if _, stale := m.future[originKey{fm.Origin, fm.Seq}]; stale {
		delete(m.future, originKey{fm.Origin, fm.Seq})
		m.updateGauge()
	}
	m.forwardFlood(fm, from)
	m.deliverLocal(fm)
	// Drain buffered successors, re-reading the delivered frontier each
	// step: deliverLocal may recurse through this function (a delivered
	// barrier activates a link whose flush advances the same origin), so
	// walking from fm.Seq alone could re-deliver what the recursion
	// already surfaced.
	for {
		key := originKey{fm.Origin, m.delivered[fm.Origin] + 1}
		fe, ok := m.future[key]
		if !ok {
			break
		}
		delete(m.future, key)
		m.updateGauge()
		m.forwardFlood(fe.msg, fe.from)
		m.deliverLocal(fe.msg)
	}
}

// deliverLocal finalizes delivery of one message: bookkeeping, metrics,
// internal barrier handling, and the application callback.
func (m *Member) deliverLocal(fm *FloodMsg) {
	m.delivered[fm.Origin] = fm.Seq
	if fm.Origin != m.self {
		m.externalDeliveries++
	}
	if bp, ok := fm.Payload.(barrierPayload); ok {
		// Barriers are protocol-internal: they mark a causal cut for
		// link activation and never reach the application.
		if m.trace != nil {
			m.trace.Mark(m.net.Now(), int(m.self),
				fmt.Sprintf("barrier delivered from=%d to=%d gen=%d", bp.From, bp.To, bp.Gen))
		}
		m.onBarrierDelivered(bp)
		return
	}
	now := m.net.Now()
	lat := now - fm.SentAt
	m.Latency.Observe(lat.Seconds())
	m.DeliveredCount.Inc()
	if ref := fm.TraceRef(); m.trace.Wants(ref) {
		m.trace.Deliver(now, int(m.self), ref, m.barrierCtx())
	}
	m.outbox = append(m.outbox, multicast.Delivered{
		ID:      fm.ID(),
		Payload: fm.Payload,
		SentAt:  fm.SentAt,
		At:      now,
		Latency: lat,
	})
}

// flush hands the deliveries of the step that just ran to the
// application. Every entry point (Handle, Multicast, Rewire, the
// timers) ends with it; the outbox is detached first, so a callback
// that re-enters Multicast flushes its own delivery before the rest.
func (m *Member) flush() {
	out := m.outbox
	m.outbox = nil
	for _, d := range out {
		m.deliver(d)
	}
}

// Handle is the member's network receive entry point.
func (m *Member) Handle(from transport.NodeID, payload any) {
	defer m.flush()
	if m.closed {
		return
	}
	switch pkt := payload.(type) {
	case *LinkPacket:
		if pkt.Group != m.cfg.Group {
			return
		}
		m.onLinkPacket(from, pkt)
	case *LinkAck:
		if pkt.Group != m.cfg.Group {
			return
		}
		m.onLinkAck(from, pkt)
	case *LinkNack:
		if pkt.Group != m.cfg.Group {
			return
		}
		m.onLinkNack(from, pkt)
	case *LinkHeartbeat:
		if pkt.Group != m.cfg.Group {
			return
		}
		m.onLinkHeartbeat(from, pkt)
	case *LinkBarrier:
		if pkt.Group != m.cfg.Group {
			return
		}
		m.onLinkBarrier(from, pkt)
	case *LinkBarrierAck:
		if pkt.Group != m.cfg.Group {
			return
		}
		m.onLinkBarrierAck(from, pkt)
	}
}

// sendCtrl transmits a control message to one peer, counting it.
func (m *Member) sendCtrl(to transport.NodeID, msg any) {
	if m.closed {
		return
	}
	m.CtrlMsgs.Inc()
	m.net.Send(m.self, to, msg)
}
