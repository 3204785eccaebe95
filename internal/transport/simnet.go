package transport

import (
	"fmt"
	"time"

	"catocs/internal/obs"
	"catocs/internal/sim"
)

// LinkConfig models one directed link's behaviour. The zero value is a
// perfect instantaneous link.
type LinkConfig struct {
	// BaseDelay is the fixed one-way latency.
	BaseDelay time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter).
	Jitter time.Duration
	// LossProb is the probability a packet is silently dropped.
	LossProb float64
	// DupProb is the probability a packet is delivered twice (the
	// second copy after an independent delay draw).
	DupProb float64
	// Bandwidth, when positive, adds a serialization delay of
	// ApproxSize(payload)/Bandwidth (bytes per second). This is how the
	// per-message ordering headers §3.4 complains about turn into wire
	// time: a vector clock on every message is not free at line rate.
	Bandwidth int
}

// SimNet is a simulated network on a discrete-event kernel. It is not
// safe for concurrent use; all calls must come from kernel events or
// from the single driving goroutine between Run calls — the same
// discipline the kernel itself imposes.
type SimNet struct {
	k        *sim.Kernel
	def      LinkConfig
	links    map[[2]NodeID]*LinkConfig
	handlers map[NodeID]Handler
	crashed  map[NodeID]bool
	// partition assigns nodes to partition islands; nodes in different
	// islands cannot communicate. nil means fully connected.
	partition map[NodeID]int
	// slow adds per-destination consumer lag (see Slow).
	slow map[NodeID]time.Duration
	// service is the per-message receive processing cost (see
	// SetServiceTime); busy tracks when each node's receive processor
	// frees up.
	service time.Duration
	busy    map[NodeID]time.Duration
	// inDispatch is set while the handler of node dispatching runs, so
	// After can find that node's receive queue.
	dispatching NodeID
	inDispatch  bool
	stats       Stats
	perNode     map[NodeID]*NodeStats
	sink        obsSink
	// deliverFn is the single prebuilt kernel callback for in-flight
	// packets; per-packet state travels in a pooled delivery record, so
	// the steady-state send path allocates neither a closure nor a
	// record. freeD is the record freelist (single-threaded, like the
	// rest of SimNet).
	deliverFn func(any)
	freeD     *delivery
}

// delivery is one in-flight packet's state, pooled via SimNet.freeD.
type delivery struct {
	from, to NodeID
	payload  any
	size     int // ApproxSize, computed once at Send
	next     *delivery
}

// NewSimNet returns a simulated network with the given default link
// behaviour applied to every pair.
func NewSimNet(k *sim.Kernel, def LinkConfig) *SimNet {
	n := &SimNet{
		k:        k,
		def:      def,
		links:    make(map[[2]NodeID]*LinkConfig),
		handlers: make(map[NodeID]Handler),
		crashed:  make(map[NodeID]bool),
		perNode:  make(map[NodeID]*NodeStats),
	}
	n.deliverFn = n.deliverRec
	return n
}

// Kernel returns the underlying simulation kernel.
func (n *SimNet) Kernel() *sim.Kernel { return n.k }

// Instrument attaches observability: tracer records per-payload wire
// events (for payloads implementing obs.Referable), reg accumulates
// labeled counters keyed by {substrate, node, kind}. Either may be
// nil; with both nil the hot path pays only nil checks. An empty
// substrate label defaults to "sim".
func (n *SimNet) Instrument(tr *obs.Tracer, reg *obs.Registry, substrate string) {
	if substrate == "" {
		substrate = "sim"
	}
	n.sink = obsSink{tracer: tr, reg: reg, substrate: substrate}
}

// Register implements Network.
func (n *SimNet) Register(id NodeID, h Handler) { n.handlers[id] = h }

// SetLink overrides the link configuration for the directed pair
// (from, to).
func (n *SimNet) SetLink(from, to NodeID, cfg LinkConfig) {
	n.links[[2]NodeID{from, to}] = &cfg
}

// Crash marks a node failed: all traffic to and from it is dropped
// until Recover. Crashing models fail-stop, the failure model the
// CATOCS literature (and the paper's §4.4 discussion) assumes.
func (n *SimNet) Crash(id NodeID) { n.crashed[id] = true }

// Recover clears a node's crashed state.
func (n *SimNet) Recover(id NodeID) { delete(n.crashed, id) }

// Crashed reports whether a node is currently marked failed.
func (n *SimNet) Crashed(id NodeID) bool { return n.crashed[id] }

// Partition divides the nodes into islands; traffic crosses islands
// only after Heal. Pass one slice per island; unlisted nodes form an
// implicit island 0... callers should list every node explicitly to
// avoid surprises, and the function panics on duplicates.
func (n *SimNet) Partition(islands ...[]NodeID) {
	p := make(map[NodeID]int)
	for i, island := range islands {
		for _, id := range island {
			if _, dup := p[id]; dup {
				panic(fmt.Sprintf("transport: node %d in multiple islands", id))
			}
			p[id] = i
		}
	}
	n.partition = p
}

// Heal removes any partition.
func (n *SimNet) Heal() { n.partition = nil }

// Slow adds lag to every delivery INTO node id — a slow consumer, not
// a slow link: the node keeps sending (acks, heartbeats) on time while
// its inbound processing falls behind. This is the §5 failure mode the
// flow-control layer exists for, and it is deliberately invisible to
// silence-based failure detectors.
func (n *SimNet) Slow(id NodeID, lag time.Duration) {
	if lag <= 0 {
		n.Fast(id)
		return
	}
	if n.slow == nil {
		n.slow = make(map[NodeID]time.Duration)
	}
	n.slow[id] = lag
}

// Fast clears a node's consumer lag.
func (n *SimNet) Fast(id NodeID) { delete(n.slow, id) }

// SetServiceTime models per-message receive processing cost: each node
// handles arriving messages serially, spending d per message, so
// arrivals queue behind one another. Zero (the default) disables the
// model entirely and preserves the instantaneous-handler behaviour.
//
// This is where the paper's §5 load-coupling argument becomes
// measurable: a process in "one big group" must spend service time on
// every message in the system, while genuine multicast charges it only
// for traffic addressed to it. With d == 0 both look equally free.
func (n *SimNet) SetServiceTime(d time.Duration) {
	n.service = d
	if d > 0 && n.busy == nil {
		n.busy = make(map[NodeID]time.Duration)
	}
}

// Stats returns a copy of the accumulated counters.
func (n *SimNet) Stats() Stats { return n.stats }

// NodeStats returns a copy of one node's send-side counters.
func (n *SimNet) NodeStats(id NodeID) NodeStats {
	if ns := n.perNode[id]; ns != nil {
		return *ns
	}
	return NodeStats{}
}

// ResetStats zeroes the counters (e.g. after warmup).
func (n *SimNet) ResetStats() {
	n.stats = Stats{}
	n.perNode = make(map[NodeID]*NodeStats)
}

// Now implements Network.
func (n *SimNet) Now() time.Duration { return n.k.Now() }

// After implements Network. A zero delay runs f after every event
// already due at this instant. With a service time configured, a
// zero-delay f armed from inside a handler also waits for the arrivals
// already queued at that node's receive processor: it runs at the back
// of the node's dispatch queue, as it would on tcpnet, not ahead of it.
func (n *SimNet) After(d time.Duration, f func()) {
	if d <= 0 && n.inDispatch && n.service > 0 {
		if b := n.busy[n.dispatching]; b > n.k.Now() {
			d = b - n.k.Now()
		}
	}
	n.k.After(d, f)
}

// reachable applies crash and partition filters.
func (n *SimNet) reachable(from, to NodeID) bool {
	if n.crashed[from] || n.crashed[to] {
		return false
	}
	if n.partition != nil && n.partition[from] != n.partition[to] {
		return false
	}
	return true
}

func (n *SimNet) linkFor(from, to NodeID) *LinkConfig {
	if cfg, ok := n.links[[2]NodeID{from, to}]; ok {
		return cfg
	}
	return &n.def
}

// Send implements Network. The reachability check happens at delivery
// time as well as send time, so a crash or partition that occurs while
// a packet is in flight drops it — matching the fail-stop model where
// in-flight data to a failed node is simply lost.
func (n *SimNet) Send(from, to NodeID, payload any) {
	size, ctrl := sizes(payload)
	accountSend(&n.stats, n.perNode, from, payload, uint64(ctrl), &n.sink)
	if !n.reachable(from, to) {
		n.stats.Dropped++
		n.sink.onDrop(to)
		return
	}
	cfg := n.linkFor(from, to)
	if cfg.LossProb > 0 && n.k.Rand().Float64() < cfg.LossProb {
		n.stats.Dropped++
		n.sink.onDrop(to)
		return
	}
	n.deliverAfter(cfg, from, to, payload, size)
	if cfg.DupProb > 0 && n.k.Rand().Float64() < cfg.DupProb {
		n.stats.Duplicated++
		n.deliverAfter(cfg, from, to, payload, size)
	}
}

func (n *SimNet) deliverAfter(cfg *LinkConfig, from, to NodeID, payload any, size int) {
	d := cfg.BaseDelay
	if cfg.Jitter > 0 {
		d += time.Duration(n.k.Rand().Int63n(int64(cfg.Jitter)))
	}
	if cfg.Bandwidth > 0 {
		d += time.Duration(float64(size) / float64(cfg.Bandwidth) * float64(time.Second))
	}
	if n.slow != nil {
		if lag := n.slow[to]; lag > 0 {
			d += lag
		}
	}
	rec := n.getDelivery(from, to, payload, size)
	n.k.AfterCall(d, n.deliverFn, rec)
}

// getDelivery takes a record off the freelist (or allocates the first
// time); putDelivery returns it. SimNet is single-threaded, so a plain
// linked list suffices.
func (n *SimNet) getDelivery(from, to NodeID, payload any, size int) *delivery {
	rec := n.freeD
	if rec == nil {
		rec = &delivery{}
	} else {
		n.freeD = rec.next
	}
	rec.from, rec.to, rec.payload, rec.size, rec.next = from, to, payload, size, nil
	return rec
}

func (n *SimNet) putDelivery(rec *delivery) {
	rec.payload = nil
	rec.next = n.freeD
	n.freeD = rec
}

// deliverRec is the kernel callback for an in-flight packet: it
// recycles the delivery record, re-checks reachability, and hands the
// payload to the destination handler (through the serial receive
// processor when a service time is configured).
func (n *SimNet) deliverRec(x any) {
	rec := x.(*delivery)
	from, to, payload, size := rec.from, rec.to, rec.payload, rec.size
	n.putDelivery(rec)
	if !n.reachable(from, to) {
		n.stats.Dropped++
		n.sink.onDrop(to)
		return
	}
	h, ok := n.handlers[to]
	if !ok {
		n.stats.Dropped++
		n.sink.onDrop(to)
		return
	}
	if n.service <= 0 {
		n.dispatch(h, from, to, payload, size)
		return
	}
	// Serial receive processing: this arrival waits for the node's
	// receive processor, then occupies it for one service time.
	// Queueing delay lands in the wire-to-handler gap, so latency
	// breakdowns attribute it to the network leg — where a real
	// kernel socket queue would put it.
	start := n.k.Now()
	if b := n.busy[to]; b > start {
		start = b
	}
	done := start + n.service
	n.busy[to] = done
	n.k.After(done-n.k.Now(), func() {
		if !n.reachable(from, to) {
			n.stats.Dropped++
			n.sink.onDrop(to)
			return
		}
		n.dispatch(h, from, to, payload, size)
	})
}

// dispatch hands one payload of size bytes to its handler, accounting
// for delivery.
func (n *SimNet) dispatch(h Handler, from, to NodeID, payload any, size int) {
	n.stats.Delivered++
	n.stats.Bytes += uint64(size)
	n.sink.onWireRecv(n.k.Now(), to, payload, size)
	n.dispatching, n.inDispatch = to, true
	h(from, payload)
	n.inDispatch = false
}
