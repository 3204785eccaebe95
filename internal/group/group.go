// Package group implements process-group membership around the
// multicast layer: heartbeat failure detection and a virtually
// synchronous view change. When a member is suspected failed, the
// lowest-ranked live member coordinates a flush: survivors suppress
// transmission, report their delivered clocks and unstable buffers,
// receive fills for messages they missed, and then install the new
// view together — so every survivor enters the new view having
// delivered the same set of old-view messages.
//
// The paper's §5 charges membership protocols with two scaling costs:
// each execution exchanges O(group) messages per member, and sending is
// suppressed for a significant window. Both are instrumented here and
// measured by experiment E7. §4.6 adds that in real-time systems this
// group-wide delay is "often a worse form of failure than a failure of
// an individual group member" — the suppression histogram quantifies
// exactly that delay.
package group

import (
	"fmt"
	"sort"
	"time"

	"catocs/internal/detect"
	"catocs/internal/metrics"
	"catocs/internal/multicast"
	"catocs/internal/transport"
	"catocs/internal/vclock"
)

// Heartbeat is the liveness beacon each monitor broadcasts.
type Heartbeat struct {
	Group string
	Epoch uint64
	From  vclock.ProcessID
}

// ApproxSize implements transport.Sizer.
func (Heartbeat) ApproxSize() int { return 24 }

// FlushReq starts a flush: the coordinator announces the survivor set
// and asks for state.
type FlushReq struct {
	Group       string
	Epoch       uint64
	Coordinator vclock.ProcessID
	Survivors   []vclock.ProcessID // old-view ranks that remain
}

// ApproxSize implements transport.Sizer.
func (f FlushReq) ApproxSize() int { return 24 + 8*len(f.Survivors) }

// FlushState is a survivor's reply: what it has delivered and what it
// still buffers.
type FlushState struct {
	Group     string
	Epoch     uint64
	From      vclock.ProcessID
	Delivered vclock.VC
	Unstable  []*multicast.DataMsg
}

// ApproxSize implements transport.Sizer.
func (f FlushState) ApproxSize() int {
	size := 24 + 8*len(f.Delivered)
	for _, m := range f.Unstable {
		size += m.ApproxSize()
	}
	return size
}

// FlushFill carries the messages a survivor missed from the old view.
type FlushFill struct {
	Group string
	Epoch uint64
	Msgs  []*multicast.DataMsg
}

// ApproxSize implements transport.Sizer.
func (f FlushFill) ApproxSize() int {
	size := 16
	for _, m := range f.Msgs {
		size += m.ApproxSize()
	}
	return size
}

// FlushDone acknowledges fill application.
type FlushDone struct {
	Group string
	Epoch uint64
	From  vclock.ProcessID
}

// ApproxSize implements transport.Sizer.
func (FlushDone) ApproxSize() int { return 24 }

// NewView installs the next membership epoch.
type NewView struct {
	Group    string
	OldEpoch uint64
	NewEpoch uint64
	Nodes    []transport.NodeID // new view, ranked
	// Incs gives each rank's incarnation number: survivors keep theirs,
	// a joiner enters at the incarnation it requested (0 for a first
	// life, its bumped WAL incarnation for a crash-recovery rejoin).
	// Every member installs the vector so stale pre-crash packets are
	// dropped at the multicast layer.
	Incs []uint32
	// Donors names the members (lowest surviving ranks first) that
	// captured a state snapshot at this view boundary and will serve it
	// to the view's joiners; empty when the view admits none. More than
	// one so a joiner survives its donor crashing mid-transfer.
	Donors []transport.NodeID
}

// ApproxSize implements transport.Sizer.
func (v NewView) ApproxSize() int { return 24 + 8*len(v.Nodes) + 4*len(v.Incs) + 8*len(v.Donors) }

// Config parameterizes monitors.
type Config struct {
	// HeartbeatInterval is the beacon period. Zero defaults to 10ms.
	HeartbeatInterval time.Duration
	// SuspectTimeout is the silence threshold for declaring a member
	// failed. Zero defaults to 4 heartbeat intervals.
	SuspectTimeout time.Duration
}

func (c Config) heartbeat() time.Duration {
	if c.HeartbeatInterval > 0 {
		return c.HeartbeatInterval
	}
	return 10 * time.Millisecond
}

func (c Config) suspect() time.Duration {
	if c.SuspectTimeout > 0 {
		return c.SuspectTimeout
	}
	return 4 * c.heartbeat()
}

// Stats collects view-change instrumentation across a monitor's life.
type Stats struct {
	ViewChanges   metrics.Counter   // views this monitor installed
	FlushMsgs     metrics.Counter   // flush-protocol messages this monitor sent
	Heartbeats    metrics.Counter   // heartbeat messages sent
	SuppressTime  metrics.Histogram // seconds spent suppressed, per view change
	DetectionTime metrics.Histogram // suspicion delay: silence start -> suspected
	StateBytes    metrics.Counter   // snapshot bytes served to joiners
	StateChunks   metrics.Counter   // snapshot chunks served to joiners
}

// Monitor runs membership for one multicast member. Like the member,
// it is driven entirely from network/timer callbacks and must not be
// used concurrently.
type Monitor struct {
	cfg    Config
	net    transport.Network
	member *multicast.Member
	group  string

	stopped   bool
	lastHeard map[vclock.ProcessID]time.Duration
	suspected map[vclock.ProcessID]bool

	// Coordinator flush state.
	flushing      bool
	flushEpoch    uint64
	flushAttempt  uint64
	survivors     []vclock.ProcessID
	states        map[vclock.ProcessID]*FlushState
	dones         map[vclock.ProcessID]bool
	fillsSent     bool
	fills         map[vclock.ProcessID]*FlushFill
	suppressStart time.Duration
	// Participant flush state: who asked for the flush in progress.
	flushCoord vclock.ProcessID
	// pendingJoins are admission requests awaiting the next view,
	// mapping each joiner to the incarnation it asked to join at
	// (coordinator only).
	pendingJoins map[transport.NodeID]uint32
	// pendingLeaves are graceful departures awaiting the next view
	// (coordinator only). A leaver participates in the flush — its
	// unstable messages survive into the agreed delivery set — and is
	// then excluded from the new view.
	pendingLeaves map[transport.NodeID]bool
	// lastView is the most recently installed view, kept so a straggler
	// whose NewView was lost can be healed when its stale-epoch
	// heartbeat arrives.
	lastView *NewView
	// lastCut is the state snapshot this member captured at its most
	// recent view boundary as a donor (nil otherwise); see transfer.go.
	lastCut *detect.Cut
	// leaving is set by Leave until the view excluding us arrives.
	leaving bool

	// StateSource, if set, snapshots this member's application state at
	// a view boundary — called only when the installed view names this
	// member a donor, at the instant between the last force-delivered
	// fill and Resume, which the flush barrier makes a consistent cut
	// (see internal/detect/cut.go). The bytes are opaque to the group
	// layer; the joiner's OnState receives them verbatim.
	StateSource func() []byte

	// OnView, if set, fires after each view installation with the new
	// view's nodes.
	OnView func(epoch uint64, nodes []transport.NodeID)

	Stats Stats
}

// NewMonitor attaches membership to a member. The network must be a
// Mux (or otherwise fan out) because the member already owns a handler
// on the same node.
func NewMonitor(net transport.Network, member *multicast.Member, groupName string, cfg Config) *Monitor {
	mon := &Monitor{
		cfg:           cfg,
		net:           net,
		member:        member,
		group:         groupName,
		lastHeard:     make(map[vclock.ProcessID]time.Duration),
		suspected:     make(map[vclock.ProcessID]bool),
		pendingJoins:  make(map[transport.NodeID]uint32),
		pendingLeaves: make(map[transport.NodeID]bool),
	}
	net.Register(member.Node(), mon.handle)
	return mon
}

// Start begins heartbeating and failure detection.
func (m *Monitor) Start() {
	now := m.net.Now()
	for r := 0; r < m.member.GroupSize(); r++ {
		m.lastHeard[vclock.ProcessID(r)] = now
	}
	m.tick()
}

// Stop permanently halts the monitor (timers stop re-arming).
func (m *Monitor) Stop() { m.stopped = true }

// Leave requests a graceful departure: this member keeps
// participating — heartbeating, answering the flush, contributing its
// unstable messages to the agreed delivery set — until a view
// excluding it arrives, at which point installView stops the monitor
// and closes the member. The request retries until then (it travels
// the same lossy network as everything else). The last member of a
// group cannot leave; the coordinator holds such a request back.
func (m *Monitor) Leave() {
	if m.stopped || m.leaving {
		return
	}
	m.leaving = true
	m.askLeave()
}

func (m *Monitor) askLeave() {
	if m.stopped {
		return
	}
	req := LeaveReq{Group: m.group, Node: m.member.Node()}
	if m.isCoordinator() {
		m.pendingLeaves[m.member.Node()] = true
		m.maybeCoordinate()
	} else {
		m.forwardToCoordinator(req)
	}
	m.net.After(m.cfg.suspect(), m.askLeave)
}

// ForceSuspect marks a rank suspected on external evidence — the
// multicast Suspect policy's admission stall naming the stability
// laggard, a member that still heartbeats (a member can be alive and
// yet not delivering, which the heartbeat timeout can never see). The
// monitor stays the only silence detector; this is the one other
// accusation. The next coordination check runs immediately, so a
// coordinator starts the flush without waiting for a heartbeat tick.
// Wire multicast.Config.OnSuspect to this.
func (m *Monitor) ForceSuspect(r vclock.ProcessID) {
	if m.stopped || r == m.member.Rank() || int(r) < 0 || int(r) >= m.member.GroupSize() || m.suspected[r] {
		return
	}
	m.suspected[r] = true
	m.Stats.DetectionTime.ObserveDuration(m.net.Now() - m.lastHeard[r])
	m.maybeCoordinate()
}

// Suspected returns the currently suspected ranks, sorted.
func (m *Monitor) Suspected() []vclock.ProcessID {
	var out []vclock.ProcessID
	for r, s := range m.suspected {
		if s {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rankNodes returns the member's current node list (rank order).
func (m *Monitor) rankNodes() []transport.NodeID {
	nodes := make([]transport.NodeID, m.member.GroupSize())
	for r := range nodes {
		nodes[r] = m.nodeOf(vclock.ProcessID(r))
	}
	return nodes
}

// nodeOf maps a rank in the current view to its transport address by
// probing the member's view. The member keeps nodes private, so the
// monitor reconstructs the mapping from the flush survivor lists; for
// the common path it relies on viewNodes captured at install time.
func (m *Monitor) nodeOf(r vclock.ProcessID) transport.NodeID {
	return m.viewNodes()[r]
}

// viewNodes returns the current view's node list.
func (m *Monitor) viewNodes() []transport.NodeID { return m.member.ViewNodes() }

// sendTo transmits to a rank, skipping self.
func (m *Monitor) sendTo(r vclock.ProcessID, msg any) {
	if r == m.member.Rank() {
		return
	}
	m.net.Send(m.member.Node(), m.nodeOf(r), msg)
}

// tick fires every heartbeat interval: beacon, then check for silence.
func (m *Monitor) tick() {
	if m.stopped {
		return
	}
	hb := Heartbeat{Group: m.group, Epoch: m.member.Epoch(), From: m.member.Rank()}
	for r := 0; r < m.member.GroupSize(); r++ {
		rank := vclock.ProcessID(r)
		if rank == m.member.Rank() {
			continue
		}
		m.Stats.Heartbeats.Inc()
		m.sendTo(rank, hb)
	}
	now := m.net.Now()
	for r := 0; r < m.member.GroupSize(); r++ {
		rank := vclock.ProcessID(r)
		if rank == m.member.Rank() || m.suspected[rank] {
			continue
		}
		if now-m.lastHeard[rank] > m.cfg.suspect() {
			m.suspected[rank] = true
			m.Stats.DetectionTime.ObserveDuration(now - m.lastHeard[rank])
		}
	}
	m.maybeCoordinate()
	m.net.After(m.cfg.heartbeat(), m.tick)
}

// isCoordinator reports whether this monitor is the lowest-ranked
// unsuspected member — the deterministic coordinator.
func (m *Monitor) isCoordinator() bool {
	for r := 0; r < int(m.member.Rank()); r++ {
		if !m.suspected[vclock.ProcessID(r)] {
			return false
		}
	}
	return true
}

// maybeCoordinate starts a flush if this monitor is the coordinator
// and there is work: suspects or leavers to remove, or joiners to
// admit.
func (m *Monitor) maybeCoordinate() {
	if m.flushing || (len(m.Suspected()) == 0 && len(m.pendingJoins) == 0 && len(m.pendingLeaves) == 0) {
		return
	}
	if !m.isCoordinator() {
		return // a lower-ranked live member will coordinate
	}
	m.startFlush()
}

// startFlush begins coordinating a view change.
func (m *Monitor) startFlush() {
	m.flushing = true
	m.flushEpoch = m.member.Epoch()
	m.flushAttempt++
	attempt := m.flushAttempt
	m.survivors = nil
	for r := 0; r < m.member.GroupSize(); r++ {
		rank := vclock.ProcessID(r)
		if !m.suspected[rank] {
			m.survivors = append(m.survivors, rank)
		}
	}
	m.states = make(map[vclock.ProcessID]*FlushState)
	m.dones = make(map[vclock.ProcessID]bool)
	m.fillsSent = false
	m.fills = nil
	req := FlushReq{Group: m.group, Epoch: m.flushEpoch, Coordinator: m.member.Rank(), Survivors: m.survivors}
	for _, r := range m.survivors {
		if r == m.member.Rank() {
			continue
		}
		m.Stats.FlushMsgs.Inc()
		m.sendTo(r, req)
	}
	m.onFlushReq(req) // self-participates without a network hop
	// Flush messages travel over the same lossy network as everything
	// else, so the coordinator retries the stalled step a few times
	// before concluding a non-responder is dead. Only after the retries
	// are exhausted does it suspect the stragglers and restart with a
	// smaller survivor set — each restart shrinks the set, so this
	// terminates.
	const maxRetries = 4
	retries := 0
	var watchdog func()
	watchdog = func() {
		if m.stopped || !m.flushing || m.flushAttempt != attempt {
			return
		}
		statesComplete := len(m.states) == len(m.survivors)
		if retries < maxRetries {
			retries++
			for _, r := range m.survivors {
				if r == m.member.Rank() {
					continue
				}
				if !statesComplete && m.states[r] == nil {
					m.Stats.FlushMsgs.Inc()
					m.sendTo(r, req)
				} else if statesComplete && !m.dones[r] && m.fills != nil {
					if fill := m.fills[r]; fill != nil {
						m.Stats.FlushMsgs.Inc()
						m.sendTo(r, fill)
					}
				}
			}
			m.net.After(m.cfg.suspect(), watchdog)
			return
		}
		// Retries exhausted: suspect exactly the members the stall is
		// waiting on and restart.
		for _, r := range m.survivors {
			if r == m.member.Rank() {
				continue
			}
			stalled := m.states[r] == nil
			if statesComplete {
				stalled = !m.dones[r]
			}
			if stalled {
				m.suspected[r] = true
			}
		}
		m.startFlush()
	}
	m.net.After(2*m.cfg.suspect(), watchdog)
}

// handle is the monitor's network entry point.
func (m *Monitor) handle(from transport.NodeID, payload any) {
	if m.stopped {
		return
	}
	switch msg := payload.(type) {
	case Heartbeat:
		if msg.Group != m.group {
			return
		}
		if msg.Epoch != m.member.Epoch() {
			// A straggler heartbeating from the previous epoch lost its
			// NewView; re-send it so the view heals (NewView itself
			// travels the same lossy network as everything else). It is
			// alive, only behind: its heartbeat refreshes the liveness
			// of its rank in the current view (msg.From is its old-epoch
			// rank), or every peer would excise it while it catches up.
			if m.lastView != nil && msg.Epoch == m.lastView.OldEpoch {
				for r, n := range m.lastView.Nodes {
					if n == from {
						m.lastHeard[vclock.ProcessID(r)] = m.net.Now()
						m.Stats.FlushMsgs.Inc()
						m.net.Send(m.member.Node(), from, m.lastView)
						break
					}
				}
			}
			return
		}
		m.lastHeard[msg.From] = m.net.Now()
	case FlushReq:
		if msg.Group != m.group || msg.Epoch != m.member.Epoch() {
			return
		}
		m.onFlushReq(msg)
	case *FlushState:
		if msg.Group != m.group || msg.Epoch != m.flushEpoch || !m.flushing {
			return
		}
		m.onFlushState(msg)
	case *FlushFill:
		if msg.Group != m.group || msg.Epoch != m.member.Epoch() {
			return
		}
		m.onFlushFill(msg)
	case FlushDone:
		if msg.Group != m.group || msg.Epoch != m.flushEpoch || !m.flushing {
			return
		}
		m.onFlushDone(msg)
	case *NewView:
		if msg.Group != m.group || msg.OldEpoch != m.member.Epoch() {
			return
		}
		m.installView(msg)
	case JoinReq:
		if msg.Group != m.group {
			return
		}
		if m.isCoordinator() {
			m.onJoinReq(msg)
			return
		}
		m.forwardToCoordinator(msg)
	case LeaveReq:
		if msg.Group != m.group {
			return
		}
		if m.isCoordinator() {
			if m.rankOfNode(msg.Node) >= 0 {
				m.pendingLeaves[msg.Node] = true
				m.maybeCoordinate()
			}
			return
		}
		m.forwardToCoordinator(msg)
	case SnapPull:
		if msg.Group != m.group {
			return
		}
		m.serveSnap(msg)
	}
}

// onJoinReq (coordinator) queues an admission. The incarnation makes
// two cases unambiguous that the node address alone cannot:
//
//   - A *reborn* identity: the node is still in the current view (it
//     crashed and restarted before anyone suspected it) but asks to
//     join at a higher incarnation. Its old self is dead by
//     definition — suspect it so the flush excises the stale rank,
//     and queue the readmission.
//   - A *stale* request: a duplicate JoinReq at or below the view's
//     current incarnation for that node (a retry in flight across its
//     own admission). Ignored.
func (m *Monitor) onJoinReq(msg JoinReq) {
	if r := m.rankOfNode(msg.Node); r >= 0 {
		if msg.Inc <= m.incOf(r) {
			return // stale: this life is already in the view
		}
		if r == int(m.member.Rank()) {
			return // our own ghost cannot readmit through us
		}
		if !m.suspected[vclock.ProcessID(r)] {
			m.suspected[vclock.ProcessID(r)] = true
			m.Stats.DetectionTime.ObserveDuration(m.net.Now() - m.lastHeard[vclock.ProcessID(r)])
		}
	}
	if msg.Inc >= m.pendingJoins[msg.Node] {
		m.pendingJoins[msg.Node] = msg.Inc
	}
	m.maybeCoordinate()
}

// forwardToCoordinator relays a membership request to the lowest
// unsuspected rank; the requester may have contacted any member.
func (m *Monitor) forwardToCoordinator(msg any) {
	for r := 0; r < m.member.GroupSize(); r++ {
		if !m.suspected[vclock.ProcessID(r)] {
			m.Stats.FlushMsgs.Inc()
			m.sendTo(vclock.ProcessID(r), msg)
			return
		}
	}
}

// rankOfNode returns node's rank in the current view, or -1.
func (m *Monitor) rankOfNode(node transport.NodeID) int {
	for r, n := range m.viewNodes() {
		if n == node {
			return r
		}
	}
	return -1
}

// incOf returns rank r's incarnation in the current view.
func (m *Monitor) incOf(r int) uint32 {
	incs := m.member.ViewIncs()
	if incs == nil || r < 0 || r >= len(incs) {
		return 0
	}
	return incs[r]
}

// onFlushReq suppresses transmission and reports state to the
// coordinator.
func (m *Monitor) onFlushReq(req FlushReq) {
	m.flushCoord = req.Coordinator
	if !m.member.Suppressed() {
		m.member.Suppress()
		m.suppressStart = m.net.Now()
	}
	state := &FlushState{
		Group:     m.group,
		Epoch:     req.Epoch,
		From:      m.member.Rank(),
		Delivered: m.member.DeliveredClock(),
		Unstable:  m.member.UnstableData(),
	}
	if req.Coordinator == m.member.Rank() {
		m.onFlushState(state)
		return
	}
	m.Stats.FlushMsgs.Inc()
	m.sendTo(req.Coordinator, state)
}

// onFlushState (coordinator) collects survivor states; when complete,
// computes and sends fills.
func (m *Monitor) onFlushState(s *FlushState) {
	if m.fillsSent {
		return // duplicate state after a retried FlushReq
	}
	m.states[s.From] = s
	if len(m.states) != len(m.survivors) {
		return
	}
	m.fillsSent = true
	// Union of all unstable messages across survivors.
	union := make(map[multicast.MsgID]*multicast.DataMsg)
	for _, st := range m.states {
		for _, d := range st.Unstable {
			union[d.ID()] = d
		}
	}
	ids := make([]multicast.MsgID, 0, len(union))
	for id := range union {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Sender != ids[j].Sender {
			return ids[i].Sender < ids[j].Sender
		}
		return ids[i].Seq < ids[j].Seq
	})
	m.fills = make(map[vclock.ProcessID]*FlushFill, len(m.survivors))
	for _, r := range m.survivors {
		st := m.states[r]
		var fills []*multicast.DataMsg
		for _, id := range ids {
			if id.Seq > st.Delivered.Get(id.Sender) {
				fills = append(fills, union[id])
			}
		}
		fill := &FlushFill{Group: m.group, Epoch: m.flushEpoch, Msgs: fills}
		m.fills[r] = fill
		if r == m.member.Rank() {
			m.onFlushFill(fill)
			continue
		}
		m.Stats.FlushMsgs.Inc()
		m.sendTo(r, fill)
	}
}

// onFlushFill applies fills in order and acknowledges to the
// coordinator recorded from the FlushReq.
func (m *Monitor) onFlushFill(f *FlushFill) {
	for _, d := range f.Msgs {
		m.member.ForceDeliver(d)
	}
	done := FlushDone{Group: m.group, Epoch: m.member.Epoch(), From: m.member.Rank()}
	if m.flushCoord == m.member.Rank() {
		m.onFlushDone(done)
		return
	}
	m.Stats.FlushMsgs.Inc()
	m.sendTo(m.flushCoord, done)
}

// onFlushDone (coordinator) counts acknowledgements; when all are in,
// announces the new view.
func (m *Monitor) onFlushDone(d FlushDone) {
	m.dones[d.From] = true
	if len(m.dones) != len(m.survivors) {
		return
	}
	// Survivors stay, minus graceful leavers — who participated in the
	// flush (their unstable messages are in the agreed delivery set)
	// and are excluded only now. A leave that would empty the view is
	// held back: someone must remain to coordinate.
	staying := make([]vclock.ProcessID, 0, len(m.survivors))
	for _, r := range m.survivors {
		if !m.pendingLeaves[m.nodeOf(r)] {
			staying = append(staying, r)
		}
	}
	if len(staying) == 0 {
		staying = append(staying, m.survivors[0])
	}
	nodes := make([]transport.NodeID, len(staying))
	incs := make([]uint32, 0, len(staying))
	inView := make(map[transport.NodeID]bool)
	for i, r := range staying {
		nodes[i] = m.nodeOf(r)
		incs = append(incs, m.incOf(int(r)))
		inView[nodes[i]] = true
	}
	// Admit pending joiners at the tail of the rank order, skipping any
	// already in the view (a joiner's retry racing its own admission).
	joiners := make([]transport.NodeID, 0, len(m.pendingJoins))
	for n := range m.pendingJoins {
		if !inView[n] {
			joiners = append(joiners, n)
		}
	}
	sort.Slice(joiners, func(i, j int) bool { return joiners[i] < joiners[j] })
	for _, n := range joiners {
		incs = append(incs, m.pendingJoins[n])
	}
	nodes = append(nodes, joiners...)
	nv := &NewView{Group: m.group, OldEpoch: m.flushEpoch, NewEpoch: m.flushEpoch + 1, Nodes: nodes, Incs: incs}
	if len(joiners) > 0 {
		// Joiners need state: the two lowest staying ranks capture the
		// cut at install time and serve it (two, so the transfer
		// survives one donor crash; see transfer.go).
		for _, r := range staying {
			nv.Donors = append(nv.Donors, m.nodeOf(r))
			if len(nv.Donors) == 2 {
				break
			}
		}
	}
	for _, r := range m.survivors {
		if r == m.member.Rank() {
			continue
		}
		m.Stats.FlushMsgs.Inc()
		m.sendTo(r, nv)
	}
	for _, n := range joiners {
		m.Stats.FlushMsgs.Inc()
		m.net.Send(m.member.Node(), n, nv)
	}
	m.pendingJoins = make(map[transport.NodeID]uint32)
	m.pendingLeaves = make(map[transport.NodeID]bool)
	m.installView(nv)
}

// installView moves the member into the new epoch and resumes traffic.
func (m *Monitor) installView(v *NewView) {
	self := m.member.Node()
	newRank := -1
	for i, n := range v.Nodes {
		if n == self {
			newRank = i
			break
		}
	}
	if newRank < 0 {
		// We were excluded (graceful leave, wrongly suspected, or healed
		// partition minority): stop rather than diverge.
		m.Stop()
		m.member.Close()
		return
	}
	// Donors capture the state cut here — after every old-view fill was
	// force-delivered (the application saw the agreed delivery set) and
	// before Resume lets new-view traffic move. Suppression plus the
	// drained fills make this instant a Chandy-Lamport consistent cut
	// with empty channels, so no marker protocol is needed.
	m.lastCut = nil
	if m.StateSource != nil {
		for _, d := range v.Donors {
			if d == self {
				data := m.StateSource()
				m.lastCut = &detect.Cut{Epoch: v.NewEpoch, Data: data, Digest: detect.DigestBytes(data)}
				break
			}
		}
	}
	m.member.InstallViewIncs(v.Nodes, vclock.ProcessID(newRank), v.NewEpoch, v.Incs)
	m.lastView = v
	if m.member.Suppressed() {
		m.Stats.SuppressTime.ObserveDuration(m.net.Now() - m.suppressStart)
		m.member.Resume()
	}
	m.flushing = false
	m.suspected = make(map[vclock.ProcessID]bool)
	m.lastHeard = make(map[vclock.ProcessID]time.Duration)
	now := m.net.Now()
	for r := 0; r < m.member.GroupSize(); r++ {
		m.lastHeard[vclock.ProcessID(r)] = now
	}
	m.Stats.ViewChanges.Inc()
	if m.OnView != nil {
		m.OnView(v.NewEpoch, v.Nodes)
	}
}

// String summarizes monitor state for debugging.
func (m *Monitor) String() string {
	return fmt.Sprintf("monitor{rank=%d epoch=%d suspected=%v flushing=%v}",
		m.member.Rank(), m.member.Epoch(), m.Suspected(), m.flushing)
}
