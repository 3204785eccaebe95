// Package pubsub implements a subject-based information bus in the
// style the paper's conclusion advocates (and its reference [23], the
// Information Bus, describes): a state-level communication framework
// where ordering lives in the data, not the transport.
//
//   - Publishers stamp each (publisher, subject) stream with sequence
//     numbers — state clocks on the published objects.
//   - Subscribers reorder per stream prescriptively (state.Reorderer)
//     or keep latest-value semantics (for feeds where a newer datum
//     supersedes an older one, §4.6 style); gaps are surfaced to the
//     application rather than hidden behind delivery stalls.
//   - Late joiners synchronize from publisher caches: the
//     order-preserving data cache pattern of §4.1, not a replay of
//     communication history.
//   - Request/reply provides the end-to-end acknowledged interactions
//     (§4.3's point that commitment needs end-to-end answers).
//
// The bus broadcasts over the plain transport: no causal or total
// ordering anywhere, which is the point.
package pubsub

import (
	"sort"
	"strings"

	"catocs/internal/metrics"
	"catocs/internal/state"
	"catocs/internal/transport"
)

// Event is a delivered publication.
type Event struct {
	Subject   string
	Publisher transport.NodeID
	Seq       uint64
	Value     any
}

// pubMsg is a publication on the wire.
type pubMsg struct {
	Subject   string
	Publisher transport.NodeID
	Seq       uint64
	Value     any
	// Reply, when non-zero, asks subscribers to answer the requester
	// directly.
	Reply   bool
	ReplyTo transport.NodeID
	ReplyID uint64
}

// replyMsg answers a request.
type replyMsg struct {
	ReplyID uint64
	Value   any
}

// syncReq asks publishers for their latest values on a subject
// pattern.
type syncReq struct {
	Pattern string
	From    transport.NodeID
}

// syncReply carries a publisher's cached latest values.
type syncReply struct {
	Events []Event
}

// Mode selects a subscription's ordering discipline.
type Mode int

const (
	// Ordered releases each (publisher, subject) stream in sequence
	// order, holding successors of a missing datum.
	Ordered Mode = iota
	// Latest applies newest-sequence-wins and drops stale arrivals —
	// the §4.6 real-time feed semantics.
	Latest
)

// subscription is one registered handler.
type subscription struct {
	pattern string
	mode    Mode
	handler func(Event)
	// Ordered mode state, per (publisher, subject) stream.
	reorder map[streamKey]*state.Reorderer
	// Latest mode state.
	latest map[streamKey]uint64
}

type streamKey struct {
	pub     transport.NodeID
	subject string
}

// Node is one bus endpoint: it can publish, subscribe, request, and
// synchronize. All methods follow the single-dispatch-context rule of
// the rest of the repository.
type Node struct {
	net   transport.Network
	node  transport.NodeID
	peers []transport.NodeID

	subs    []*subscription
	pubSeq  map[string]uint64
	cache   map[string]Event // latest value per locally published subject
	nextReq uint64
	pending map[uint64]func(any)

	Published metrics.Counter
	Delivered metrics.Counter
	Held      metrics.Gauge // ordered-mode holdback across streams
	Stale     metrics.Counter
}

// NewNode attaches a bus endpoint at node; peers lists every other bus
// node (subject-based addressing over broadcast).
func NewNode(net transport.Network, node transport.NodeID, peers []transport.NodeID) *Node {
	n := &Node{
		net:     net,
		node:    node,
		peers:   append([]transport.NodeID(nil), peers...),
		pubSeq:  make(map[string]uint64),
		cache:   make(map[string]Event),
		pending: make(map[uint64]func(any)),
	}
	net.Register(node, n.handle)
	return n
}

// matches implements subject matching: exact, or a trailing ">"
// wildcard matching any suffix ("prices.>" matches "prices.IBM").
func matches(pattern, subject string) bool {
	if strings.HasSuffix(pattern, ">") {
		return strings.HasPrefix(subject, strings.TrimSuffix(pattern, ">"))
	}
	return pattern == subject
}

// Subscribe registers a handler for a subject pattern under the given
// ordering mode.
func (n *Node) Subscribe(pattern string, mode Mode, handler func(Event)) {
	n.subs = append(n.subs, &subscription{
		pattern: pattern,
		mode:    mode,
		handler: handler,
		reorder: make(map[streamKey]*state.Reorderer),
		latest:  make(map[streamKey]uint64),
	})
}

// Publish sends value on subject to every peer (and local
// subscribers), stamped with the stream's next sequence number.
func (n *Node) Publish(subject string, value any) uint64 {
	n.pubSeq[subject]++
	seq := n.pubSeq[subject]
	msg := pubMsg{Subject: subject, Publisher: n.node, Seq: seq, Value: value}
	n.cache[subject] = Event{Subject: subject, Publisher: n.node, Seq: seq, Value: value}
	n.Published.Inc()
	for _, p := range n.peers {
		n.net.Send(n.node, p, msg)
	}
	n.dispatch(msg) // local subscribers see it immediately
	return seq
}

// Request publishes a request on subject; the first subscriber reply
// invokes onReply.
func (n *Node) Request(subject string, value any, onReply func(any)) {
	n.nextReq++
	id := n.nextReq
	n.pending[id] = onReply
	msg := pubMsg{
		Subject: subject, Publisher: n.node, Seq: 0, Value: value,
		Reply: true, ReplyTo: n.node, ReplyID: id,
	}
	for _, p := range n.peers {
		n.net.Send(n.node, p, msg)
	}
}

// Sync asks all peers for their cached latest values matching pattern;
// they arrive through normal subscription dispatch (Latest-mode
// subscribers converge to current values).
func (n *Node) Sync(pattern string) {
	for _, p := range n.peers {
		n.net.Send(n.node, p, syncReq{Pattern: pattern, From: n.node})
	}
}

// handle is the node's receive path.
func (n *Node) handle(from transport.NodeID, payload any) {
	switch msg := payload.(type) {
	case pubMsg:
		n.dispatch(msg)
	case replyMsg:
		if cb, ok := n.pending[msg.ReplyID]; ok {
			delete(n.pending, msg.ReplyID)
			cb(msg.Value)
		}
	case syncReq:
		var evs []Event
		for subject, ev := range n.cache {
			if matches(msg.Pattern, subject) {
				evs = append(evs, ev)
			}
		}
		sort.Slice(evs, func(i, j int) bool { return evs[i].Subject < evs[j].Subject })
		if len(evs) > 0 {
			n.net.Send(n.node, msg.From, syncReply{Events: evs})
		}
	case syncReply:
		for _, ev := range msg.Events {
			n.dispatch(pubMsg{Subject: ev.Subject, Publisher: ev.Publisher, Seq: ev.Seq, Value: ev.Value})
		}
	}
}

// dispatch routes a publication to matching subscriptions under their
// ordering modes, and answers requests.
func (n *Node) dispatch(msg pubMsg) {
	if msg.Reply {
		// A request: the first matching subscription's handler produces
		// no value directly; we answer with the cached latest value for
		// the subject if we publish it, else ignore. Applications
		// needing richer servers subscribe and Reply explicitly.
		if ev, ok := n.cache[msg.Subject]; ok && msg.ReplyTo != n.node {
			n.net.Send(n.node, msg.ReplyTo, replyMsg{ReplyID: msg.ReplyID, Value: ev.Value})
		}
		return
	}
	ev := Event{Subject: msg.Subject, Publisher: msg.Publisher, Seq: msg.Seq, Value: msg.Value}
	for _, sub := range n.subs {
		if !matches(sub.pattern, msg.Subject) {
			continue
		}
		key := streamKey{pub: msg.Publisher, subject: msg.Subject}
		switch sub.mode {
		case Ordered:
			ro, ok := sub.reorder[key]
			if !ok {
				ro = state.NewReorderer()
				sub.reorder[key] = ro
			}
			held := ro.Held()
			for _, v := range ro.Submit(msg.Seq, ev) {
				n.Delivered.Inc()
				sub.handler(v.(Event))
			}
			n.Held.Add(int64(ro.Held() - held))
		case Latest:
			if msg.Seq <= sub.latest[key] {
				n.Stale.Inc()
				continue
			}
			sub.latest[key] = msg.Seq
			n.Delivered.Inc()
			sub.handler(ev)
		}
	}
}
