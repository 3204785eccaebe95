// Package tcpnet implements transport.Network over real TCP sockets,
// carrying the same protocol payloads SimNet and LiveNet move in
// process — but encoded through the internal/wire registry codec so
// independent OS processes can host group members.
//
// Topology: every process binds one listener and hosts one or more
// local NodeIDs. All traffic from this process to a given remote
// process shares ONE outbound TCP connection (per-pair multiplexing:
// frames carry explicit from/to node IDs), established lazily on first
// send and re-established with jittered exponential backoff after any
// failure. The remote's traffic back to us arrives on its own outbound
// connection to our listener, so a healthy pair of processes holds
// exactly two sockets regardless of how many NodeIDs each side hosts.
//
// Delivery preserves the single-dispatch-context contract the ordering
// protocols assume (multicast.Member and pubsub.Node have no internal
// locking): ONE dispatcher goroutine per Net executes every handler
// invocation, every After callback, and every Inject function, so all
// local nodes share a serial execution context exactly as they do on
// SimNet's kernel goroutine.
//
// Send never blocks. Each remote peer has a bounded outbound queue
// governed by a flowcontrol.Budget; when the queue is full the frame
// is dropped and counted (Shed semantics, matching SimNet/LiveNet
// mailbox overflow). Callers that want to adapt instead of losing
// traffic read Outbound/Backpressured and shrink their own admission
// windows — the same flowcontrol vocabulary the group layer uses.
package tcpnet

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"catocs/internal/flowcontrol"
	"catocs/internal/obs"
	"catocs/internal/transport"
	"catocs/internal/wire"
)

// Config parameterises a Net. The zero value of every tuning field is
// replaced by a sensible default; Listen, Local and Addrs are required.
type Config struct {
	// Listen is the TCP address this process binds ("127.0.0.1:7001",
	// or ":0" for an ephemeral port exposed via Addr()).
	Listen string
	// Local lists the NodeIDs hosted by this process. Only these may be
	// Registered, and only their inbound traffic is accepted.
	Local []transport.NodeID
	// Addrs maps every NodeID in the universe (local and remote) to the
	// listen address of the process hosting it.
	Addrs map[transport.NodeID]string
	// EpochNanos anchors Now() to a shared wall-clock instant
	// (unix nanoseconds) so traces from different processes share a
	// timeline. Zero means "process start".
	EpochNanos int64

	// Queue bounds each remote peer's outbound queue. Zero fields mean
	// the default (8192 msgs / 16 MiB). Overflow drops the frame.
	Queue flowcontrol.Budget
	// MailboxDepth bounds the inbound dispatch queue (default 65536).
	MailboxDepth int

	DialTimeout  time.Duration // per dial attempt (default 2s)
	WriteTimeout time.Duration // per batch write (default 5s)
	PingEvery    time.Duration // keepalive interval per conn (default 1s)
	// IdleTimeout closes an inbound conn that delivers nothing — not
	// even pings — for this long: half-open detection (default 4×ping).
	IdleTimeout  time.Duration
	ReconnectMin time.Duration // first backoff after a failure (default 50ms)
	ReconnectMax time.Duration // backoff ceiling (default 2s)

	// MaxFrame bounds a frame's encoded payload (default 64 MiB). An
	// inbound length prefix exceeding it poisons the whole connection:
	// the stream is unframeable garbage.
	MaxFrame int
	// MaxBatch caps frames coalesced into one flush (default 128).
	MaxBatch int
}

func (c Config) withDefaults() Config {
	if c.Queue.MaxMsgs == 0 {
		c.Queue.MaxMsgs = 8192
	}
	if c.Queue.MaxBytes == 0 {
		c.Queue.MaxBytes = 16 << 20
	}
	if c.MailboxDepth == 0 {
		c.MailboxDepth = 1 << 16
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.PingEvery == 0 {
		c.PingEvery = time.Second
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 4 * c.PingEvery
	}
	if c.ReconnectMin == 0 {
		c.ReconnectMin = 50 * time.Millisecond
	}
	if c.ReconnectMax == 0 {
		c.ReconnectMax = 2 * time.Second
	}
	if c.MaxFrame == 0 {
		c.MaxFrame = 64 << 20
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 128
	}
	return c
}

// task is one unit of work for the dispatcher goroutine: either a
// function (After/Inject) or a delivery.
type task struct {
	fn      func()
	from    transport.NodeID
	to      transport.NodeID
	payload any
	size    int // encoded payload bytes, for the Bytes counter
}

// Net is a transport.Network over TCP. See the package comment for the
// topology and threading model.
type Net struct {
	cfg   Config
	epoch time.Time
	ln    net.Listener

	local map[transport.NodeID]bool
	peers map[string]*peerConn           // one per remote process, by address
	route map[transport.NodeID]*peerConn // nil entry = local node

	mu       sync.Mutex
	handlers map[transport.NodeID]transport.Handler
	stats    transport.Stats
	perNode  map[transport.NodeID]*transport.NodeStats
	inbound  map[net.Conn]bool // accepted conns, closed by Close
	closed   bool

	tracer    *obs.Tracer
	reg       *obs.Registry
	substrate string

	nc counters

	mailbox chan task
	done    chan struct{}
	wg      sync.WaitGroup
	once    sync.Once
}

var _ transport.Network = (*Net)(nil)

// New binds the listener and starts the dispatcher and accept loops.
// It does not dial anyone: outbound connections form lazily on first
// send to each remote process.
func New(cfg Config) (*Net, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Local) == 0 {
		return nil, fmt.Errorf("tcpnet: Config.Local is empty")
	}
	if cfg.Listen == "" {
		return nil, fmt.Errorf("tcpnet: Config.Listen is empty")
	}
	n := &Net{
		cfg:      cfg,
		local:    make(map[transport.NodeID]bool, len(cfg.Local)),
		peers:    make(map[string]*peerConn),
		route:    make(map[transport.NodeID]*peerConn, len(cfg.Addrs)),
		handlers: make(map[transport.NodeID]transport.Handler),
		perNode:  make(map[transport.NodeID]*transport.NodeStats),
		inbound:  make(map[net.Conn]bool),
		mailbox:  make(chan task, cfg.MailboxDepth),
		done:     make(chan struct{}),
	}
	if cfg.EpochNanos != 0 {
		n.epoch = time.Unix(0, cfg.EpochNanos)
	} else {
		n.epoch = time.Now()
	}
	for _, id := range cfg.Local {
		n.local[id] = true
	}
	for id, addr := range cfg.Addrs {
		if n.local[id] {
			n.route[id] = nil
			continue
		}
		p := n.peers[addr]
		if p == nil {
			p = newPeerConn(n, addr)
			n.peers[addr] = p
		}
		n.route[id] = p
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", cfg.Listen, err)
	}
	n.ln = ln
	n.wg.Add(2)
	go n.dispatcher()
	go n.acceptLoop()
	for _, p := range n.peers {
		n.wg.Add(1)
		go p.writerLoop()
	}
	return n, nil
}

// Addr returns the bound listen address (useful with Listen ":0").
func (n *Net) Addr() string { return n.ln.Addr().String() }

// Register implements transport.Network. Only NodeIDs listed in
// Config.Local may be registered; anything else is a wiring bug.
func (n *Net) Register(id transport.NodeID, h transport.Handler) {
	if !n.local[id] {
		panic(fmt.Sprintf("tcpnet: Register(%d) but node is not in Config.Local", id))
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.closed {
		n.handlers[id] = h
	}
}

// Instrument attaches observability, mirroring SimNet/LiveNet: the
// tracer records per-payload wire events, the registry accumulates
// {substrate, node, kind} counters. Empty substrate defaults to "tcp".
func (n *Net) Instrument(tr *obs.Tracer, reg *obs.Registry, substrate string) {
	if substrate == "" {
		substrate = "tcp"
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tracer = tr
	n.reg = reg
	n.substrate = substrate
}

// Send implements transport.Network. It never blocks: the payload is
// encoded immediately, queued on the destination process's bounded
// outbound queue, and dropped (with a counter) if that queue's budget
// is exhausted — the TCP analogue of SimNet/LiveNet mailbox overflow.
// Local destinations short-circuit through the wire codec (encode +
// decode) so loopback traffic exercises the identical canonical form
// and handlers never alias the sender's message structs.
func (n *Net) Send(from, to transport.NodeID, payload any) {
	// Encode straight into a pooled buffer, frame header first, so the
	// whole send path — header, body, queue, write — reuses one
	// allocation-free buffer per frame.
	bp := getFrameBuf()
	var hdrZero [frameHeaderLen]byte
	buf := append((*bp)[:0], hdrZero[:]...)
	kind, buf, err := wire.MarshalAppend(buf, payload)
	*bp = buf
	if err != nil {
		putFrameBuf(bp)
		n.nc.encodeErrors.Add(1)
		n.accountSend(from, payload)
		n.drop(to)
		return
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(buf)-4))
	binary.LittleEndian.PutUint16(buf[4:6], uint16(kind))
	binary.LittleEndian.PutUint64(buf[6:14], uint64(int64(from)))
	binary.LittleEndian.PutUint64(buf[14:22], uint64(int64(to)))
	n.accountSend(from, payload)
	if n.local[to] {
		n.deliverLocal(from, to, kind, bp)
		return
	}
	p, ok := n.route[to]
	if !ok || p == nil {
		putFrameBuf(bp)
		n.nc.unroutable.Add(1)
		n.drop(to)
		return
	}
	if !p.enqueue(frame{kind: kind, from: from, to: to, buf: bp}) {
		putFrameBuf(bp)
		n.nc.queueDrops.Add(1)
		n.drop(to)
	}
}

// deliverLocal routes a loopback frame through the codec and into the
// dispatch mailbox, subject to the same overflow-drop rule as inbound
// network traffic. The frame buffer is recycled here: decoders copy
// everything they retain, so the decoded payload does not alias it.
func (n *Net) deliverLocal(from, to transport.NodeID, kind wire.Kind, bp *[]byte) {
	body := (*bp)[frameHeaderLen:]
	payload, err := wire.Unmarshal(kind, body)
	size := len(body)
	putFrameBuf(bp)
	if err != nil {
		n.nc.decodeErrors.Add(1)
		n.drop(to)
		return
	}
	n.enqueueDelivery(from, to, payload, size)
}

// enqueueDelivery hands a decoded payload to the dispatcher without
// blocking; mailbox overflow loses the message, as on a real receiver
// with an exhausted socket buffer.
func (n *Net) enqueueDelivery(from, to transport.NodeID, payload any, size int) {
	select {
	case n.mailbox <- task{from: from, to: to, payload: payload, size: size}:
	default:
		n.nc.mailboxDrops.Add(1)
		n.drop(to)
	}
}

// dispatcher is the single execution context for all handlers, After
// callbacks and Inject functions hosted by this Net.
func (n *Net) dispatcher() {
	defer n.wg.Done()
	for {
		select {
		case <-n.done:
			return
		case t := <-n.mailbox:
			if t.fn != nil {
				t.fn()
				continue
			}
			n.mu.Lock()
			h := n.handlers[t.to]
			if h == nil {
				n.stats.Dropped++
				if n.reg != nil {
					n.reg.Counter(n.substrate, int(t.to), "dropped").Inc()
				}
				n.mu.Unlock()
				continue
			}
			n.stats.Delivered++
			n.stats.Bytes += uint64(t.size)
			tr, reg, sub := n.tracer, n.reg, n.substrate
			n.mu.Unlock()
			if tr != nil && tr.WantsWire(t.payload) {
				if ref, ok := obs.RefOf(t.payload); ok {
					tr.WireRecv(n.Now(), int(t.to), ref)
				}
			}
			if reg != nil {
				reg.Counter(sub, int(t.to), "delivered").Inc()
				reg.Counter(sub, int(t.to), "bytes").Add(uint64(t.size))
			}
			h(t.from, t.payload)
		}
	}
}

// Now implements transport.Network: wall time since the shared epoch.
func (n *Net) Now() time.Duration { return time.Since(n.epoch) }

// After implements transport.Network. f runs on the dispatcher
// goroutine, preserving the serial execution context timers share with
// message handlers on SimNet. A zero delay queues f directly behind the
// tasks already in the mailbox; only when the mailbox is full does it
// take the timer path, since a blocking send from the dispatcher itself
// would deadlock.
func (n *Net) After(d time.Duration, f func()) {
	if d <= 0 {
		select {
		case n.mailbox <- task{fn: f}:
			return
		default:
		}
	}
	time.AfterFunc(d, func() {
		select {
		case n.mailbox <- task{fn: f}:
		case <-n.done:
		}
	})
}

// Inject runs f on the dispatcher goroutine, the only context from
// which protocol objects hosted on this Net may be touched. It blocks
// only if the mailbox is saturated, and never after Close.
func (n *Net) Inject(f func()) {
	select {
	case n.mailbox <- task{fn: f}:
	case <-n.done:
	}
}

// Outbound reports the occupancy of the outbound queue toward the
// process hosting id (zero for local or unknown nodes).
func (n *Net) Outbound(id transport.NodeID) (msgs, bytes int) {
	p := n.route[id]
	if p == nil {
		return 0, 0
	}
	return len(p.ch), int(p.queuedBytes.Load())
}

// Backpressured reports whether the outbound queue toward id has
// crossed half its budget — the signal a sender should shrink its
// admission window (flowcontrol.Budget.Share) instead of letting Send
// start shedding.
func (n *Net) Backpressured(id transport.NodeID) bool {
	msgs, bytes := n.Outbound(id)
	return n.cfg.Queue.Exceeded(msgs*2, bytes*2)
}

// QueueBudget returns the per-peer outbound budget in force.
func (n *Net) QueueBudget() flowcontrol.Budget { return n.cfg.Queue }

// accountSend mirrors the send-side accounting SimNet and LiveNet
// share, charging control bytes and forward markers to the sender.
func (n *Net) accountSend(from transport.NodeID, payload any) {
	ctrl := uint64(transport.ControlSize(payload))
	fm, ok := payload.(transport.ForwardMarker)
	fwd := ok && fm.Forwarded()
	n.mu.Lock()
	n.stats.Sent++
	n.stats.CtrlBytes += ctrl
	if fwd {
		n.stats.Forwarded++
	}
	ns := n.perNode[from]
	if ns == nil {
		ns = &transport.NodeStats{}
		n.perNode[from] = ns
	}
	ns.Sent++
	ns.CtrlBytes += ctrl
	if fwd {
		ns.Forwarded++
	}
	reg, sub := n.reg, n.substrate
	n.mu.Unlock()
	if reg != nil {
		reg.Counter(sub, int(from), "sent").Inc()
		reg.Counter(sub, int(from), "ctrl_bytes").Add(ctrl)
		if fwd {
			reg.Counter(sub, int(from), "forwarded").Inc()
		}
	}
}

// drop counts one lost payload against its destination.
func (n *Net) drop(to transport.NodeID) {
	n.mu.Lock()
	n.stats.Dropped++
	reg, sub := n.reg, n.substrate
	n.mu.Unlock()
	if reg != nil {
		reg.Counter(sub, int(to), "dropped").Inc()
	}
}

// Stats returns a snapshot of the transport-level counters. Bytes
// counts real encoded payload bytes over delivered messages (not
// ApproxSize estimates — the wire is no longer imaginary).
func (n *Net) Stats() transport.Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// NodeStats returns one node's send-side counters.
func (n *Net) NodeStats(id transport.NodeID) transport.NodeStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ns := n.perNode[id]; ns != nil {
		return *ns
	}
	return transport.NodeStats{}
}

// Close shuts the listener, all connections, the peer writers and the
// dispatcher, then waits for every goroutine to exit. Traffic in
// flight is lost, as on a machine losing power.
func (n *Net) Close() {
	n.once.Do(func() {
		close(n.done)
		n.ln.Close()
		n.mu.Lock()
		n.closed = true
		for c := range n.inbound {
			c.Close()
		}
		n.mu.Unlock()
	})
	n.wg.Wait()
}
