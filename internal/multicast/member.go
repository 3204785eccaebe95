package multicast

import (
	"fmt"
	"time"

	"catocs/internal/flowcontrol"
	"catocs/internal/metrics"
	"catocs/internal/obs"
	"catocs/internal/seqwin"
	"catocs/internal/stability"
	"catocs/internal/transport"
	"catocs/internal/vclock"
	"catocs/internal/wal"
)

// Ordering selects the delivery discipline of a group.
type Ordering int

const (
	// Unordered delivers on arrival — the UDP-over-IP-multicast
	// baseline the paper contrasts CATOCS against (§2). It is
	// non-atomic only: NewMember refuses it with Atomic.
	Unordered Ordering = iota
	// FIFO delivers each sender's messages in send order, with no
	// cross-sender constraints.
	FIFO
	// Causal delivers in happens-before order (CBCAST): a message waits
	// for all its potential causal predecessors.
	Causal
	// TotalSeq delivers all messages in one global order assigned by a
	// fixed sequencer member.
	TotalSeq
	// TotalCausal is sequencer-based total order that also respects
	// happens-before: messages carry causal stamps and the sequencer
	// assigns positions only in a causally consistent order. This is
	// the "totally ordered multicast ... commonly in accordance with
	// the happens-before relationship" the paper assumes (§2); plain
	// TotalSeq can order m2 before m1 even when m1 happens-before m2,
	// if m2 reaches the sequencer first.
	TotalCausal
)

// String names the ordering.
func (o Ordering) String() string {
	switch o {
	case Unordered:
		return "unordered"
	case FIFO:
		return "fifo"
	case Causal:
		return "causal"
	case TotalSeq:
		return "total-seq"
	case TotalCausal:
		return "total-causal"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}

// Config parameterizes a group.
type Config struct {
	// Group names the group; members ignore traffic for other groups.
	Group string
	// Ordering is the delivery discipline.
	Ordering Ordering
	// Atomic enables unstable-message buffering, stability tracking via
	// acks, and NACK-driven retransmission of both data and (for the
	// sequencer-based total orderings) order assignments.
	Atomic bool
	// AckInterval is the delay before a member broadcasts its delivered
	// clock after buffering activity (atomic mode). Zero defaults to
	// 20ms of network time.
	AckInterval time.Duration
	// NackDelay is how long a detected gap may age before the member
	// requests retransmission (atomic mode). Zero defaults to 25ms.
	NackDelay time.Duration
	// Tracer, when non-nil, records the member's per-message lifecycle
	// (send, holdback, deliver, stabilize, view-change spans) into the
	// shared causal trace. Disabled tracing costs one nil check per
	// event site.
	Tracer *obs.Tracer
	// Budget bounds the member's unstable buffer in atomic mode. The
	// zero value is unlimited — the paper's CATOCS default, under which
	// one slow receiver grows every member's buffer without bound (§5).
	Budget flowcontrol.Budget
	// Overflow selects the reaction when the budget is reached. Ignored
	// unless Atomic and Budget.Limited().
	Overflow flowcontrol.Policy
	// SpillDevice backs the Spill policy's overflow store. Nil selects a
	// fresh in-memory WAL device per member.
	SpillDevice *wal.Device
	// OnSuspect, when non-nil, receives the Suspect policy's
	// accusations (at most one per rank per view). The membership layer
	// wires it to group.Monitor.ForceSuspect so an accusation triggers
	// the view change that excises the laggard.
	OnSuspect func(vclock.ProcessID)
	// StallTimeout is how long the admission window may stay blocked
	// before the Suspect policy accuses the stability laggard. Zero
	// defaults to 250ms.
	StallTimeout time.Duration
	// VCRefreshEvery is the refresh period of the causal stamp chain
	// (Causal and TotalCausal): every k'th cast from a sender carries
	// its full vector clock, the casts between carry only the entries
	// that changed since the sender's previous cast, and receivers
	// rebuild the full stamp along the sender's sequence chain. Header
	// cost between refreshes drops from O(group size) to O(concurrent
	// writers). Zero resolves to 32 when Atomic and to 1 otherwise;
	// period 1 is the plain full-clock protocol (every cast a refresh,
	// no delta ever built). Reordering never breaks a chain: a delta
	// waits for its predecessor's stamp, however that stamp arrives. A
	// lost cast holds its sender's later casts at a receiver under any
	// period, behind the FIFO gap, until the NACK path (Atomic)
	// retransmits it with its full clock.
	VCRefreshEvery int
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

func (c Config) stallTimeout() time.Duration {
	if c.StallTimeout > 0 {
		return c.StallTimeout
	}
	return 250 * time.Millisecond
}

// orderRunMax bounds an order-announcement run (TotalSeq and
// TotalCausal sequencer): up to this many assignments ride one
// OrderBatchMsg, flushed when the run is full or when the flush task
// reaches the front of the sequencer's dispatch queue.
const orderRunMax = 64

// vcRefreshEvery resolves the stamp chain's refresh period (see
// Config.VCRefreshEvery).
func (c Config) vcRefreshEvery() uint64 {
	switch {
	case c.VCRefreshEvery > 0:
		return uint64(c.VCRefreshEvery)
	case c.Atomic:
		return 32
	default:
		return 1
	}
}

// fifoDelivery reports whether each sender's casts are delivered in
// sequence order, so the delivered clock counts them.
func (c Config) fifoDelivery() bool {
	return c.Ordering == FIFO || c.Ordering == Causal
}

// stamped reports whether casts carry a causal stamp.
func (c Config) stamped() bool {
	return c.Ordering == Causal || c.Ordering == TotalCausal
}

// Delivered describes one message handed to the application.
type Delivered struct {
	ID      MsgID
	Payload any
	SentAt  time.Duration
	At      time.Duration
	Latency time.Duration
	// VC is the message's causal dependency stamp (causal ordering
	// only; nil otherwise). Instrumentation such as the §5 causal-graph
	// census reads it; applications should not.
	VC vclock.VC
}

// DeliverFunc receives ordered deliveries.
type DeliverFunc func(Delivered)

// Member is one endpoint of a process group. All methods must be
// called from the network's dispatch context (the simulation kernel or
// a single driving goroutine); the member performs no locking itself.
type Member struct {
	cfg     Config
	net     transport.Network
	nodes   []transport.NodeID // rank -> node address
	rank    vclock.ProcessID
	epoch   uint64
	deliver DeliverFunc

	// Incarnation guard (dynamic membership). inc is this member's own
	// incarnation, stamped on every cast; incs, when non-nil, is the
	// per-rank incarnation vector of the current view, and any data
	// whose stamp disagrees is a packet from a previous life of that
	// identity — dropped before it can reach the ordering layer. Static
	// groups (every path that calls InstallView without incarnations)
	// leave incs nil and skip the check entirely.
	inc  uint32
	incs []uint32

	closed     bool
	suppressed bool
	outbox     []any // control sends queued while suppressed
	// pendingMulticasts holds application multicasts issued during
	// suppression; they are re-issued after Resume so they carry the
	// new view's epoch rather than dying as stale traffic.
	pendingMulticasts []pendingMulticast

	// Send side.
	sendSeq uint64

	// Delivered state: per-sender delivered counts. In causal mode this
	// is also the CBCAST delivered clock.
	delivered vclock.VC

	// Holdback for FIFO/causal, one sequence window per sender rank
	// (every per-sender buffer below is one too; see internal/seqwin).
	// Only the head of each sender's chain (delivered+1) can ever be
	// deliverable under FIFO or causal rules, so the drain path probes
	// one key per sender instead of scanning every pending message —
	// O(ready), not O(pending).
	pendQ     []seqwin.Window[*DataMsg]
	pendCount int

	// Causal stamp chain (stamped orderings; see DESIGN.md). Send side:
	// deltaBase is the clock of this member's previous cast (the delta
	// base) and deltaBuf is the reusable diff scratch. Receive side, per
	// sender: reconSeq/reconVC are the chain head — every stamp up to
	// reconSeq is known, reconVC is the last of them (nil when a resumed
	// checkpoint skipped it) — and ahead holds stamps known past
	// head+1, from full-clock copies that overtook their predecessors or
	// from deltas decoded against them; it is allocated on the first
	// such stamp, so in-order traffic never touches it. parked holds
	// delta-stamped arrivals whose predecessor's stamp is not known yet
	// — they decode once it is, or are recovered as full-clock
	// retransmissions through the NACK path. parkedCount is
	// Σ len(parked[s]): parked arrivals are held back as surely as
	// queued ones, and PendingCount reports both. fullThrough
	// (ResumeChains) is the last sequence number that must carry the
	// full clock whatever the period says.
	deltaBase   vclock.VC
	deltaBuf    []vclock.DeltaEntry
	reconVC     []vclock.VC
	reconSeq    []uint64
	ahead       []seqwin.Window[vclock.VC]
	parked      []seqwin.Window[*DataMsg]
	parkedCount int
	fullThrough uint64

	// TotalSeq / TotalCausal state. seq is the sequencer (sequencer.go),
	// nil on every other member.
	seq        *sequencer
	orderKnown *seqSet // messages with an assigned position
	nextGlobal uint64  // next global seq to deliver (1-based)
	// Known-but-undelivered assignments by global position, from
	// nextGlobal to at most maxOrderWindow past it. Positions are
	// consumed contiguously from the front, so in steady state the ring
	// reuses the same few slots.
	orderWin seqwin.Window[MsgID]
	// Arrived-but-undelivered data, sharded per sender like pendQ.
	dataQ     []seqwin.Window[*DataMsg]
	dataCount int
	// maxGlobalSeen is the highest global position this member has
	// learned of, for order-gap detection.
	maxGlobalSeen uint64

	// deliveredIDs dedups for modes whose delivery can cross per-sender
	// sequence order (unordered and the total orders); FIFO/causal
	// dedup on the delivered clock instead.
	deliveredIDs *seqSet

	// Atomic mode.
	stab        *stability.Tracker
	ackArmed    bool
	nackArmed   bool
	nackRetries map[MsgID]int
	// Ack suppression: lastAdvert is the stability clock as last
	// advertised to the group (piggybacked on data or broadcast in an
	// ack); a scheduled ack whose clock has not moved since is skipped
	// unless ackForce is set (the retransmit-our-frontier paths).
	lastAdvert vclock.VC
	ackForce   bool
	// known tracks the highest sequence each sender is known to have
	// multicast, learned from arrivals (parked ones included),
	// piggybacked delivered clocks and acks.
	// Gaps between delivered and known with nothing pending identify
	// messages lost with no causal successor to betray them — without
	// this, a lost final message would never be re-requested.
	known vclock.VC
	// contig is the contiguous delivered prefix per sender, maintained
	// only for the total orderings in atomic mode. Total delivery can
	// cross per-sender sequence order, so the delivered clock is a max
	// and MUST NOT feed stability acks: acknowledging seq 8 while seq 5
	// is undelivered would evict seq 5 from every retransmission
	// buffer, losing it forever.
	contig vclock.VC

	// Flow control (atomic mode with a limited Budget; see
	// flowcontrol.go).
	window  flowcontrol.Budget // this sender's admission share
	blocked []blockedCast      // casts parked at the admission window
	// lastAdmit is when the admission window last accepted a cast; the
	// Suspect policy's stall clock runs from max(head parked, lastAdmit)
	// so a steadily draining queue — or one carried across a view
	// change — is progress, not a stall.
	lastAdmit     time.Duration
	suspectedByMe map[vclock.ProcessID]bool // Suspect policy only

	// Instrumentation.
	Latency        metrics.Histogram // delivery latency (seconds)
	HoldbackGauge  metrics.Gauge     // delay-queue occupancy over time
	DeliveredCount metrics.Counter
	SentCount      metrics.Counter
	CtrlMsgs       metrics.Counter   // protocol (non-data) messages sent
	Duplicates     metrics.Counter   // duplicate data copies discarded
	StaleDrops     metrics.Counter   // data dropped by the incarnation guard
	FarDrops       metrics.Counter   // data dropped maxSeqWindow or more past its sender's frontier
	AdmissionStall metrics.Histogram // Block/Suspect admission stall (seconds)
	ShedCount      metrics.Counter   // casts rejected by the Shed policy
	SuspectCount   metrics.Counter   // suspicions this member raised
	trace          *obs.Tracer       // nil when tracing is disabled
}

// suppressedSend is an outbox entry.
type suppressedSend struct {
	to  transport.NodeID
	msg any
}

// pendingMulticast is an application send deferred by suppression.
type pendingMulticast struct {
	payload any
	size    int
}

// NewMember creates one group endpoint and registers its handler on
// the network. nodes lists the group's transport addresses by rank;
// rank is this member's index into it.
func NewMember(net transport.Network, nodes []transport.NodeID, rank vclock.ProcessID, cfg Config, deliver DeliverFunc) *Member {
	if int(rank) < 0 || int(rank) >= len(nodes) {
		panic(fmt.Sprintf("multicast: rank %d out of range for %d nodes", rank, len(nodes)))
	}
	if cfg.Atomic && cfg.Ordering == Unordered {
		// A chain checkpoint keeps only the delivered set's contiguous
		// prefix, so an Unordered member rebuilt from one would deliver
		// again what it delivered above a gap.
		panic("multicast: Unordered is non-atomic only: atomic delivery needs FIFO, causal or total order")
	}
	m := &Member{
		cfg:          cfg,
		net:          net,
		nodes:        append([]transport.NodeID(nil), nodes...),
		rank:         rank,
		deliver:      deliver,
		delivered:    vclock.New(len(nodes)),
		pendQ:        make([]seqwin.Window[*DataMsg], len(nodes)),
		orderKnown:   newSeqSet(len(nodes)),
		nextGlobal:   1,
		dataQ:        make([]seqwin.Window[*DataMsg], len(nodes)),
		nackRetries:  make(map[MsgID]int),
		deliveredIDs: newSeqSet(len(nodes)),
	}
	m.seq = newSequencer(m)
	if cfg.stamped() {
		m.initChainState()
	}
	if cfg.Atomic {
		m.stab = stability.New(len(nodes))
		m.known = vclock.New(len(nodes))
		if cfg.Ordering != FIFO && cfg.Ordering != Causal {
			// The contiguous delivered prefix is exactly the delivered
			// set's frontier; alias it rather than maintain it twice.
			m.contig = m.deliveredIDs.hi
		}
		if cfg.Budget.Limited() {
			m.stab.SetBudget(cfg.Budget)
			m.window = cfg.Budget.Share(len(nodes))
			switch cfg.Overflow {
			case flowcontrol.Spill:
				m.stab.SetSpill(wal.NewSpillStore(cfg.SpillDevice))
			case flowcontrol.Suspect:
				m.suspectedByMe = make(map[vclock.ProcessID]bool)
			}
		}
	}
	m.trace = cfg.Tracer
	if m.trace != nil && m.stab != nil {
		m.stab.Instrument(m.trace, int(m.Node()), net.Now)
	}
	net.Register(nodes[rank], m.Handle)
	return m
}

// NewGroup builds a full group of len(nodes) members with the given
// config. deliverFor supplies each rank's delivery callback (may return
// nil for a sink).
func NewGroup(net transport.Network, nodes []transport.NodeID, cfg Config, deliverFor func(rank vclock.ProcessID) DeliverFunc) []*Member {
	members := make([]*Member, len(nodes))
	for i := range nodes {
		var d DeliverFunc
		if deliverFor != nil {
			d = deliverFor(vclock.ProcessID(i))
		}
		if d == nil {
			d = func(Delivered) {}
		}
		members[i] = NewMember(net, nodes, vclock.ProcessID(i), cfg, d)
	}
	return members
}

// initChainState (re)builds the stamp chain's send and receive state
// for the current view size.
func (m *Member) initChainState() {
	n := len(m.nodes)
	m.deltaBase = vclock.New(n)
	m.deltaBuf = m.deltaBuf[:0]
	m.reconVC = make([]vclock.VC, n)
	m.reconSeq = make([]uint64, n)
	m.ahead = nil
	m.parked = make([]seqwin.Window[*DataMsg], n)
	m.parkedCount = 0
	m.fullThrough = 0
}

// Rank returns this member's rank in the current view.
func (m *Member) Rank() vclock.ProcessID { return m.rank }

// Node returns this member's transport address.
func (m *Member) Node() transport.NodeID { return m.nodes[m.rank] }

// GroupSize returns the current view size.
func (m *Member) GroupSize() int { return len(m.nodes) }

// ViewNodes returns a copy of the current view's node list in rank
// order. The membership layer uses it to address peers.
func (m *Member) ViewNodes() []transport.NodeID {
	return append([]transport.NodeID(nil), m.nodes...)
}

// Epoch returns the current view epoch.
func (m *Member) Epoch() uint64 { return m.epoch }

// ViewIncs returns a copy of the current view's incarnation vector, or
// nil for a view installed without one (static groups).
func (m *Member) ViewIncs() []uint32 {
	if m.incs == nil {
		return nil
	}
	return append([]uint32(nil), m.incs...)
}

// DeliveredClock returns a copy of the per-sender delivered counts.
func (m *Member) DeliveredClock() vclock.VC { return m.delivered.Clone() }

// stabilityClock returns the clock safe to acknowledge for stability:
// the delivered clock for prefix-ordered modes, the contiguous prefix
// for the total orderings.
func (m *Member) stabilityClock() vclock.VC {
	if m.contig != nil {
		return m.contig
	}
	return m.delivered
}

// PendingCount returns the current holdback/delay-queue occupancy:
// every arrived message not yet delivered, whether it waits on the
// ordering rule or (parked) on its sender's stamp chain.
func (m *Member) PendingCount() int {
	switch m.cfg.Ordering {
	case TotalSeq, TotalCausal:
		return m.dataCount + m.parkedCount
	default:
		return m.pendCount + m.parkedCount
	}
}

// Stability returns the atomic-mode stability tracker, or nil.
func (m *Member) Stability() *stability.Tracker { return m.stab }

// updateHoldbackGauge publishes the occupancy of whichever delay queue
// the ordering mode actually uses. Every insertion and removal path —
// including force-delivery during a view-change flush — must funnel
// through this, or the gauge reads stale values after pruning.
func (m *Member) updateHoldbackGauge() {
	m.HoldbackGauge.Set(int64(m.PendingCount()))
}

// Close permanently silences the member: no further sends, deliveries,
// or timer re-arms. Used at the end of experiments so the simulation
// quiesces.
func (m *Member) Close() { m.closed = true }

// Suppress pauses transmission AND delivery (view-change flush
// window). Multicasts issued while suppressed queue for re-issue;
// arriving messages are buffered (atomic mode) but not delivered —
// a delivery after the member reported its flush state would break
// the all-survivors-delivered-the-same-set agreement. ForceDeliver
// (the flush fill path) bypasses the freeze.
func (m *Member) Suppress() {
	if m.trace != nil && !m.suppressed {
		m.trace.SpanBegin(m.net.Now(), int(m.Node()), "view-change flush")
	}
	m.suppressed = true
}

// Resume ends suppression: queued control sends flush as-is (stale
// epochs are harmlessly discarded by receivers), and application
// multicasts deferred during the window are re-issued so they carry
// the current epoch.
func (m *Member) Resume() {
	if m.trace != nil && m.suppressed {
		m.trace.SpanEnd(m.net.Now(), int(m.Node()), "view-change flush")
	}
	m.suppressed = false
	out := m.outbox
	m.outbox = nil
	for _, e := range out {
		s := e.(suppressedSend)
		m.net.Send(m.Node(), s.to, s.msg)
	}
	pm := m.pendingMulticasts
	m.pendingMulticasts = nil
	for _, p := range pm {
		m.Multicast(p.payload, p.size)
	}
	// Deliveries frozen during the window drain now (relevant when a
	// suppression ends without a view change; a view change clears the
	// queues instead), as do casts parked at the admission window.
	m.drainHoldback()
	m.drainTotal()
	m.drainBlocked()
}

// Suppressed reports whether the member is in a suppression window.
func (m *Member) Suppressed() bool { return m.suppressed }

// send transmits a protocol message to one rank, honouring suppression
// and close.
func (m *Member) send(to vclock.ProcessID, msg any) {
	if m.closed {
		return
	}
	if m.suppressed {
		m.outbox = append(m.outbox, suppressedSend{to: m.nodes[to], msg: msg})
		return
	}
	m.net.Send(m.Node(), m.nodes[to], msg)
}

// sendAll transmits msg to every rank including self.
func (m *Member) sendAll(msg any) {
	for r := range m.nodes {
		m.send(vclock.ProcessID(r), msg)
	}
}

// Multicast sends payload (with an approximate encoded size in bytes)
// to the whole group under the configured ordering. It returns the
// message id. The sender's own copy is delivered through the network
// like everyone else's, so latency and ordering are uniform. Under a
// limited Budget the cast may instead be parked (Block/Suspect) or
// rejected (Shed) by the admission window; both return the zero id.
func (m *Member) Multicast(payload any, size int) MsgID {
	if m.closed {
		return MsgID{}
	}
	if m.suppressed {
		// Defer rather than stamp now: a view change during the flush
		// window would orphan an old-epoch message. The returned id is
		// zero because the real send happens at Resume.
		m.pendingMulticasts = append(m.pendingMulticasts, pendingMulticast{payload: payload, size: size})
		return MsgID{}
	}
	if !m.admitCast(payload, size) {
		return MsgID{}
	}
	return m.multicastNow(payload, size)
}

// multicastNow stamps and transmits a cast the admission window has
// cleared (or that no window governs).
func (m *Member) multicastNow(payload any, size int) MsgID {
	m.lastAdmit = m.net.Now()
	m.sendSeq++
	msg := &DataMsg{
		Group:       m.cfg.Group,
		Epoch:       m.epoch,
		Inc:         m.inc,
		Sender:      m.rank,
		Seq:         m.sendSeq,
		SentAt:      m.net.Now(),
		Payload:     payload,
		PayloadSize: size,
	}
	if m.cfg.stamped() {
		vc := m.delivered.Clone()
		vc.Set(m.rank, m.sendSeq)
		msg.VC = vc
	}
	if m.cfg.Atomic {
		// Piggyback the stability clock only when it moved since the last
		// advertisement (on data or explicit ack): an unchanged clock
		// tells receivers nothing, and dropping it saves O(N) header
		// bytes on every cast of a one-way burst.
		sc := m.stabilityClock()
		if m.lastAdvert == nil || !sc.Equal(m.lastAdvert) {
			msg.DeliveredVC = sc.Clone()
			m.lastAdvert = sc.Clone()
		}
		m.stab.Buffer(stability.Key{Sender: msg.Sender, Seq: msg.Seq}, msg, dataMsgLen(msg))
		if m.sendSeq > m.known.Get(m.rank) {
			// A WAL replay (ResumeChains) re-stamps sequences this member
			// already delivered; known never moves below delivered.
			m.known.Set(m.rank, m.sendSeq)
		}
		m.armAck()
	}
	m.SentCount.Inc()
	if m.trace != nil {
		if ref := msg.TraceRef(); m.trace.Wants(ref) {
			msg.traceWant = 1
			msg.traceCtx = m.causalCtx(msg)
			m.trace.Send(m.net.Now(), int(m.Node()), ref, msg.traceCtx)
		} else {
			msg.traceWant = -1
		}
	}
	wireMsg := msg
	if m.cfg.stamped() {
		// Every refresh-period'th cast carries the full clock, from which
		// a receiver decodes the next delta whatever arrived before it;
		// every other cast travels as a delta against this member's
		// previous cast. The stability buffer above holds the full-clock
		// original, so retransmissions never depend on a receiver's chain
		// state.
		if (m.sendSeq-1)%m.cfg.vcRefreshEvery() != 0 && m.sendSeq > m.fullThrough {
			m.deltaBuf = msg.VC.DiffFrom(m.deltaBase, m.deltaBuf[:0])
			cp := *msg
			cp.VC = nil
			cp.VCDelta = append([]vclock.DeltaEntry(nil), m.deltaBuf...)
			cp.wireLen = 0
			wireMsg = &cp
		}
		m.deltaBase = msg.VC // stamps are never mutated once cast
	}
	m.sendAll(wireMsg)
	return msg.ID()
}

// causalCtx renders a message's causal context for the trace: its
// vector-clock stamp when the ordering carries one, else its
// per-sender sequence position.
func (m *Member) causalCtx(msg *DataMsg) string {
	if msg.VC != nil {
		return "vc=" + msg.VC.String()
	}
	return fmt.Sprintf("seq=%d:%d", msg.Sender, msg.Seq)
}

// traceHoldback records that an arriving message is being held back,
// if it is still undeliverable after the drain attempt that followed
// its arrival.
func (m *Member) traceHoldback(msg *DataMsg, reason string) {
	if !m.msgWants(msg) {
		return
	}
	held := false
	switch m.cfg.Ordering {
	case FIFO, Causal:
		held = m.pendQ[msg.Sender].Has(msg.Seq)
	default:
		_, held = m.dataGet(msg.ID())
	}
	if held {
		m.trace.Holdback(m.net.Now(), int(m.Node()), msg.TraceRef(), reason)
	}
}

// msgWants reports whether trace events for msg should be built,
// reading the sender's cached sampling decision before hashing.
func (m *Member) msgWants(msg *DataMsg) bool {
	if m.trace == nil {
		return false
	}
	if msg.traceWant != 0 {
		return msg.traceWant > 0
	}
	return m.trace.Wants(msg.TraceRef())
}

// Handle is the member's network receive entry point.
func (m *Member) Handle(from transport.NodeID, payload any) {
	if m.closed {
		return
	}
	switch msg := payload.(type) {
	case *DataMsg:
		if msg.Group != m.cfg.Group || msg.Epoch != m.epoch || !m.validRank(msg.Sender) {
			return
		}
		if m.staleInc(msg) {
			return
		}
		m.onData(msg)
	case *OrderBatchMsg:
		if msg.Group != m.cfg.Group || msg.Epoch != m.epoch {
			return
		}
		m.onOrderBatch(msg)
	case *AckMsg:
		if msg.Group != m.cfg.Group || msg.Epoch != m.epoch {
			return
		}
		m.onAck(msg)
	case *NackMsg:
		if msg.Group != m.cfg.Group || msg.Epoch != m.epoch {
			return
		}
		m.onNack(msg)
	case *RetransMsg:
		if msg.Group != m.cfg.Group || msg.Epoch != m.epoch || !m.validRank(msg.Data.Sender) {
			return
		}
		if m.staleInc(msg.Data) {
			return
		}
		m.onData(msg.Data)
	case *OrderNack:
		if msg.Group != m.cfg.Group || msg.Epoch != m.epoch {
			return
		}
		if m.seq != nil {
			m.seq.onOrderNack(msg)
		}
	}
}

// isDuplicate reports whether msg was already delivered. FIFO and
// causal deliver in per-sender sequence order, so the delivered clock
// suffices; the other modes can deliver across sequence order and need
// an explicit id set.
func (m *Member) isDuplicate(msg *DataMsg) bool {
	switch m.cfg.Ordering {
	case FIFO, Causal:
		return msg.Seq <= m.delivered.Get(msg.Sender)
	default:
		return m.deliveredIDs.Has(msg.ID())
	}
}

// validRank reports whether a wire-supplied rank indexes the current
// view. Decoded frames are untrusted; every per-sender structure is
// indexed by rank, so out-of-range senders are dropped at the door.
func (m *Member) validRank(p vclock.ProcessID) bool {
	return int(p) >= 0 && int(p) < len(m.nodes)
}

// staleInc reports whether a data message was stamped by a previous
// incarnation of its sender — a pre-crash packet still in flight after
// the identity rejoined with a bumped incarnation. The caller has
// already validated the rank. Views installed without incarnation
// vectors (incs nil) never drop.
func (m *Member) staleInc(msg *DataMsg) bool {
	if m.incs == nil || msg.Inc == m.incs[msg.Sender] {
		return false
	}
	m.StaleDrops.Inc()
	return true
}

// Incarnation returns this member's own incarnation number.
func (m *Member) Incarnation() uint32 { return m.inc }

// onData routes an arriving data message. A stamped message's full
// causal stamp is first reconstructed along the sender's sequence
// chain; a delta whose predecessor's stamp is not known yet parks until
// it is (or until the NACK path retransmits it full-clock).
//
// First comes the door: a sequence number maxSeqWindow or more past
// its sender's delivery frontier is dropped and counted before any
// window sees it. Every per-sender buffer is a sequence window whose
// memory follows the span of its keys, so the door is what keeps one
// hostile frame from sizing a window to its sequence number. An
// Unordered member is never atomic and buffers nothing, so it has no
// door.
func (m *Member) onData(msg *DataMsg) {
	if m.cfg.Ordering != Unordered {
		if f := m.frontier()[msg.Sender]; msg.Seq > f && msg.Seq-f >= maxSeqWindow {
			m.FarDrops.Inc()
			return
		}
	}
	if !m.cfg.stamped() {
		m.onDataMain(msg)
		return
	}
	if msg = m.reconstruct(msg); msg == nil {
		return
	}
	m.onDataMain(msg)
	m.drainParked(msg.Sender, msg.Seq, msg.VC)
}

// reconstruct recovers a message's full causal stamp. A full-clock copy
// (refresh or retransmission) passes through and records its stamp. A
// delta-stamped copy of cast q decodes against the known stamp of q-1 —
// the chain head or a stamp ahead of it — parks while that stamp is
// unknown, and drops as a duplicate once its own stamp is known.
// Returns nil when the message cannot enter the ordering layer yet.
func (m *Member) reconstruct(in *DataMsg) *DataMsg {
	s, q := in.Sender, in.Seq
	known := q <= m.reconSeq[s] || m.aheadAt(s, q) != nil
	if in.VC != nil {
		if !known {
			m.unpark(s, q) // this copy supersedes its parked delta twin
			m.learn(s, q, in.VC)
		}
		return in
	}
	if known {
		m.Duplicates.Inc()
		return nil
	}
	base := m.reconVC[s]
	if q-1 != m.reconSeq[s] {
		base = m.aheadAt(s, q-1)
	}
	if base == nil {
		shard := &m.parked[s]
		before := shard.Len()
		shard.Put(q, in) // a duplicate arrival overwrites its twin
		m.parkedCount += shard.Len() - before
		m.updateHoldbackGauge()
		if m.known != nil {
			// A parked arrival is evidence that s cast everything up to
			// q, so the gap below it is noticed now rather than when an
			// ack or piggybacked clock happens to mention it.
			if q > m.known[s] {
				m.known[s] = q
			}
			m.armNack()
		}
		return nil
	}
	return m.decode(in, base)
}

// decode rebuilds a delta copy's full stamp from base, the stamp of its
// sender's previous cast, and records it. Nil for a malformed delta.
func (m *Member) decode(in *DataMsg, base vclock.VC) *DataMsg {
	nv := base.Clone()
	if !nv.ApplyDelta(in.VCDelta) {
		return nil // malformed wire delta
	}
	out := *in // shallow copy: the transports share one DataMsg across receivers
	out.VC = nv
	out.wireLen = 0
	m.learn(in.Sender, in.Seq, nv)
	return &out
}

// learn records the newly known stamp of cast q from s. The next cast's
// stamp advances the head, which then walks through the stamps already
// known ahead of it; any other waits ahead until the head reaches it.
// Stamps are never mutated once cast, so the chain keeps references.
func (m *Member) learn(s vclock.ProcessID, q uint64, vc vclock.VC) {
	if q != m.reconSeq[s]+1 {
		if m.ahead == nil {
			m.ahead = make([]seqwin.Window[vclock.VC], len(m.nodes))
		}
		m.ahead[s].Put(q, vc)
		return
	}
	m.reconSeq[s], m.reconVC[s] = q, vc
	if m.ahead == nil {
		return
	}
	for next, ok := m.ahead[s].Delete(q + 1); ok; next, ok = m.ahead[s].Delete(q + 1) {
		q++
		m.reconSeq[s], m.reconVC[s] = q, next
	}
}

// aheadAt returns the known stamp of cast q from s past the chain head,
// or nil.
func (m *Member) aheadAt(s vclock.ProcessID, q uint64) vclock.VC {
	if m.ahead == nil {
		return nil
	}
	vc, _ := m.ahead[s].Get(q)
	return vc
}

// unpark drops and returns the parked copy of cast q from s, if any.
func (m *Member) unpark(s vclock.ProcessID, q uint64) *DataMsg {
	in, ok := m.parked[s].Delete(q)
	if ok {
		m.parkedCount--
		m.updateHoldbackGauge()
	}
	return in
}

// drainParked decodes the parked deltas that follow cast q of s, whose
// stamp vc has just become known, for as long as they run contiguously.
func (m *Member) drainParked(s vclock.ProcessID, q uint64, vc vclock.VC) {
	for {
		in := m.unpark(s, q+1)
		if in == nil {
			return
		}
		rec := m.decode(in, vc)
		if rec == nil {
			return
		}
		m.onDataMain(rec)
		q, vc = rec.Seq, rec.VC
	}
}

// onDataMain routes a (fully stamped) data message by ordering mode.
func (m *Member) onDataMain(msg *DataMsg) {
	if m.isDuplicate(msg) {
		m.Duplicates.Inc()
		return
	}
	if m.cfg.Atomic {
		if msg.DeliveredVC != nil {
			m.observeStability(msg.Sender, msg.DeliveredVC)
			m.raiseKnown(msg.DeliveredVC)
		}
		if msg.Seq > m.known.Get(msg.Sender) {
			m.known.Set(msg.Sender, msg.Seq)
		}
		m.stab.Buffer(stability.Key{Sender: msg.Sender, Seq: msg.Seq}, msg, dataMsgLen(msg))
		m.armAck()
		if len(m.nackRetries) > 0 {
			// An arrived message never goes missing again: dropping its
			// retry count keeps the map the size of the current gaps,
			// not of every id ever requested this epoch.
			delete(m.nackRetries, msg.ID())
		}
	}
	switch m.cfg.Ordering {
	case Unordered:
		if m.suppressed {
			return
		}
		m.doDeliver(msg)
	case FIFO, Causal:
		if m.pendQ[msg.Sender].Has(msg.Seq) {
			m.Duplicates.Inc()
			return
		}
		if !m.suppressed && m.deliverable(msg) {
			// Fast path: the common in-order arrival delivers without
			// ever touching the holdback queue.
			m.doDeliver(msg)
			if m.pendCount > 0 {
				m.drainHoldback()
				if m.cfg.Atomic && m.pendCount > 0 {
					m.armNack()
				}
			}
			return
		}
		m.pendQ[msg.Sender].Put(msg.Seq, msg)
		m.pendCount++
		m.updateHoldbackGauge()
		if m.cfg.Ordering == Causal {
			m.traceHoldback(msg, "awaiting causal predecessors")
		} else {
			m.traceHoldback(msg, "fifo gap")
		}
		if m.cfg.Atomic {
			if m.cfg.Ordering == Causal {
				// The stamp names every predecessor the held message
				// waits on; with it folded in, eachMissing reads the
				// queue's wants off the known frontier alone.
				m.raiseKnown(msg.VC)
			}
			m.armNack()
		}
	case TotalSeq:
		if m.dataQ[msg.Sender].Has(msg.Seq) {
			m.Duplicates.Inc()
			return
		}
		m.dataQ[msg.Sender].Put(msg.Seq, msg)
		m.dataCount++
		m.updateHoldbackGauge()
		if m.seq != nil && !m.orderKnown.Has(msg.ID()) {
			m.seq.assignOrder(msg.ID())
		}
		m.drainTotal()
		m.traceHoldback(msg, "awaiting global order")
		if m.cfg.Atomic && m.dataCount > 0 {
			m.armNack()
		}
	case TotalCausal:
		if m.dataQ[msg.Sender].Has(msg.Seq) {
			m.Duplicates.Inc()
			return
		}
		m.dataQ[msg.Sender].Put(msg.Seq, msg)
		m.dataCount++
		m.updateHoldbackGauge()
		if m.seq != nil && msg.Seq > m.seq.seqDelivered.Get(msg.Sender) {
			m.seq.seqQ[msg.Sender].Put(msg.Seq, msg)
			m.seq.drainSequencer()
		}
		m.drainTotal()
		m.traceHoldback(msg, "awaiting causally consistent global order")
		if m.cfg.Atomic && m.dataCount > 0 {
			m.armNack()
		}
	}
}

// maxSeqWindow bounds how far past its sender's delivery frontier a
// wire-supplied sequence number is buffered or believed: data beyond it
// is dropped at the door (onData) and evidence that a sender cast
// beyond it is clamped there (raiseKnown). Without a bound one hostile
// frame could size a window to its number or send the NACK path walking
// towards it; with it, what one frame can make this member hold for its
// sender stays under a megabyte per window. Legitimate traffic runs far
// inside it: the benchmark's workloads and the chaos worlds bring casts
// at most a few hundred past the frontier. An atomic group recovers a
// cast dropped here by NACK once the frontier has advanced.
const maxSeqWindow = 1 << 14

// maxOrderWindow bounds how far past the next position to deliver an
// order assignment is kept (learnOrder), for the same reason.
const maxOrderWindow = 1 << 20

// frontier returns the per-sender delivery frontier: every cast from s
// up to frontier()[s] is delivered here. FIFO and causal deliver in
// sequence order, so it is the delivered clock; the total orders
// deliver across it and use the delivered set's contiguous prefix.
func (m *Member) frontier() vclock.VC {
	if m.cfg.fifoDelivery() {
		return m.delivered
	}
	return m.deliveredIDs.hi
}

// raiseKnown folds a wire-supplied clock into known, each entry
// clamped at the last sequence the door lets in from its sender.
func (m *Member) raiseKnown(vc vclock.VC) {
	f := m.frontier()
	for s, v := range vc {
		if v = min(v, f[s]+maxSeqWindow-1); v > m.known[s] {
			m.known[s] = v
		}
	}
}

// learnOrder records that global position g holds id, unless id's
// position is known already. A position already consumed or
// maxOrderWindow or more past the next one to deliver is not kept,
// though the id counts as known from then on.
func (m *Member) learnOrder(g uint64, id MsgID) {
	if g > m.maxGlobalSeen {
		m.maxGlobalSeen = g
	}
	if m.orderKnown.Has(id) {
		return
	}
	m.orderKnown.Add(id)
	if g >= m.nextGlobal && g-m.nextGlobal < maxOrderWindow {
		m.orderWin.Put(g, id)
	}
}

// dataGet looks up arrived-but-undelivered data by id. Ids arriving in
// order messages are untrusted, so the rank is range-checked.
func (m *Member) dataGet(id MsgID) (*DataMsg, bool) {
	if !m.validRank(id.Sender) {
		return nil, false
	}
	return m.dataQ[id.Sender].Get(id.Seq)
}

// dataDel removes id from the arrival buffer if present.
func (m *Member) dataDel(id MsgID) {
	if !m.validRank(id.Sender) {
		return
	}
	if _, held := m.dataQ[id.Sender].Delete(id.Seq); held {
		m.dataCount--
	}
}

// onOrderBatch records a run of sequencer assignments.
func (m *Member) onOrderBatch(ob *OrderBatchMsg) {
	for i, id := range ob.IDs {
		m.learnOrder(ob.FirstGlobal+uint64(i), id)
	}
	m.drainTotal()
	if m.cfg.Atomic && (m.dataCount > 0 || m.nextGlobal <= m.maxGlobalSeen) {
		m.armNack()
	}
}

// deliverable reports whether msg may be delivered now under FIFO or
// causal rules.
func (m *Member) deliverable(msg *DataMsg) bool {
	switch m.cfg.Ordering {
	case FIFO:
		return msg.Seq == m.delivered.Get(msg.Sender)+1
	case Causal:
		if msg.VCDelta != nil {
			// Reconstructed delta message: only the changed entries need
			// inspection — O(concurrent writers), not O(group size).
			return m.delivered.DeliverableDelta(msg.Sender, msg.Seq, msg.VCDelta)
		}
		return m.delivered.Deliverable(msg.VC, msg.Sender)
	default:
		return true
	}
}

// drainHoldback repeatedly delivers every now-deliverable pending
// message until a fixpoint. Under FIFO and causal rules only the head
// of each sender's chain (delivered+1) can ever be deliverable, so the
// scan probes one key per sender — O(senders + deliveries), not
// O(pending). Restarting from rank 0 after each delivery reproduces
// the old full-scan's deterministic smallest-(sender, seq)-first order,
// which the simulator's reproducibility guarantee depends on.
func (m *Member) drainHoldback() {
	if m.suppressed {
		return // delivery frozen during the flush window
	}
	for s := 0; s < len(m.pendQ); {
		head := m.delivered.Get(vclock.ProcessID(s)) + 1
		if msg, ok := m.pendQ[s].Get(head); ok && m.deliverable(msg) {
			m.pendQ[s].Delete(head)
			m.pendCount--
			m.updateHoldbackGauge()
			m.doDeliver(msg)
			s = 0
			continue
		}
		s++
	}
}

// drainTotal delivers sequenced messages in global order as far as
// both the order assignments and the data have arrived.
func (m *Member) drainTotal() {
	if m.suppressed {
		return // delivery frozen during the flush window
	}
	for {
		id, ok := m.orderWin.Get(m.nextGlobal)
		if !ok {
			return
		}
		msg, ok := m.dataGet(id)
		if !ok {
			return
		}
		m.dataDel(id)
		m.updateHoldbackGauge()
		m.orderWin.Delete(m.nextGlobal)
		m.nextGlobal++
		m.doDeliver(msg)
	}
}

// doDeliver finalizes delivery: advances the delivered clock, records
// metrics, and invokes the application callback.
func (m *Member) doDeliver(msg *DataMsg) {
	switch m.cfg.Ordering {
	case FIFO, Causal:
		m.delivered.Set(msg.Sender, msg.Seq)
	default:
		// Adding to the delivered set also advances its contiguous
		// frontier, which m.contig (the stability ack clock) aliases.
		m.deliveredIDs.Add(msg.ID())
		// Per-sender counts still advance to the max seen, which keeps
		// the delivered clock a useful progress measure.
		if msg.Seq > m.delivered.Get(msg.Sender) {
			m.delivered.Set(msg.Sender, msg.Seq)
		}
	}
	now := m.net.Now()
	lat := now - msg.SentAt
	m.Latency.Observe(lat.Seconds())
	m.DeliveredCount.Inc()
	if m.msgWants(msg) {
		ctx := msg.traceCtx
		if ctx == "" { // not stamped at send (e.g. untraced origin member)
			ctx = m.causalCtx(msg)
		}
		m.trace.Deliver(now, int(m.Node()), msg.TraceRef(), ctx)
	}
	m.deliver(Delivered{ID: msg.ID(), Payload: msg.Payload, SentAt: msg.SentAt, At: now, Latency: lat, VC: msg.VC})
}
