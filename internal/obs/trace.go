// Package obs is the shared observability substrate for every
// broadcast stack in this repository: a causal trace recorder that
// captures per-message lifecycle events (send, wire-receive,
// holdback-enqueue, deliver, stabilize, plus view-change and
// overlay-reconfiguration spans), a thread-safe labeled metrics
// registry, and exporters — Chrome trace-event JSON for
// chrome://tracing / Perfetto, and an ASCII space-time diagram
// renderer that reproduces the paper's Figure 1–4 event diagrams from
// recorded executions.
//
// The paper makes its entire argument with event diagrams and an
// informal latency/buffering cost model (§5); this package makes both
// first-class measurement targets. A trace answers *where a message
// spent its life* — in flight versus held back for causal or total
// order — which is exactly the decomposition experiment E17 reports
// and every future performance PR diffs against.
//
// Everything is nil-safe: a nil *Tracer records nothing, so
// instrumented hot paths pay a single pointer check when tracing is
// disabled.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Kind classifies a trace event.
type Kind uint8

const (
	// KSend marks a broadcast's origination (application send).
	KSend Kind = iota
	// KWireRecv marks raw arrival of a message copy at a node, before
	// any ordering discipline. Flood substrates may record several per
	// (message, node); analysis takes the earliest.
	KWireRecv
	// KHoldback marks a message entering an ordering holdback queue: a
	// CBCAST delay queue, a total-order wait, a link-FIFO gap, or a
	// reconfiguration buffer. Name carries the reason.
	KHoldback
	// KDeliver marks delivery to the application after ordering.
	KDeliver
	// KStabilize marks a message becoming stable at a node (known
	// delivered everywhere) and leaving the unstable buffer.
	KStabilize
	// KSpanBegin opens a named span at a node (view-change flush,
	// overlay link activation). Matched by name with KSpanEnd.
	KSpanBegin
	// KSpanEnd closes the most recent span of the same name at the
	// node.
	KSpanEnd
	// KMark is an instantaneous annotation (view installation, overlay
	// rewire, barrier delivery).
	KMark
)

// String names the kind as rendered in diagrams.
func (k Kind) String() string {
	switch k {
	case KSend:
		return "send"
	case KWireRecv:
		return "recv"
	case KHoldback:
		return "hold"
	case KDeliver:
		return "dlvr"
	case KStabilize:
		return "stab"
	case KSpanBegin:
		return "span+"
	case KSpanEnd:
		return "span-"
	case KMark:
		return "mark"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// MsgRef identifies a broadcast across the trace: the seq'th message
// from a sender (a view rank for the multicast stack, a transport
// NodeID for scalecast). Scenarios that know messages only by name set
// Label and Sender -1; the struct stays comparable either
// way so it can key analysis maps.
type MsgRef struct {
	Sender int64
	Seq    uint64
	Label  string
}

// IsZero reports whether the ref names no message (span/mark events).
func (r MsgRef) IsZero() bool { return r == MsgRef{} }

// String renders the ref: the label when one is set, else sender:seq.
func (r MsgRef) String() string {
	if r.Label != "" {
		return r.Label
	}
	return fmt.Sprintf("%d:%d", r.Sender, r.Seq)
}

// Referable is implemented by wire payloads that can name the
// broadcast they carry, letting the transport layer record
// wire-receive events without knowing any protocol's message types.
type Referable interface {
	TraceRef() MsgRef
}

// RefOf extracts a payload's message ref, if it carries one.
func RefOf(payload any) (MsgRef, bool) {
	if r, ok := payload.(Referable); ok {
		return r.TraceRef(), true
	}
	return MsgRef{}, false
}

// TraceHinted is implemented by wire payloads whose sender cached its
// head-sampling decision on the message. Every downstream event of one
// broadcast — wire receives, holdbacks, deliveries at each node —
// shares the sender's decision, so the hint replaces a hash per event
// with a field read. The recorder still applies its own admission gate
// when recording, so a hint computed by a differently-configured
// tracer can cost a dropped event's construction but never a wrong
// retention.
type TraceHinted interface {
	// TraceWanted returns the cached decision and whether the sender
	// made one.
	TraceWanted() (wanted, known bool)
}

// Event is one captured occurrence.
type Event struct {
	T    time.Duration
	Node int
	Kind Kind
	Msg  MsgRef // zero for spans and marks
	// Ctx is the causal context at the event: the message's vector
	// clock for the CBCAST stack, the barrier epoch for scalecast, the
	// stability frontier for stabilize events. The figure scenarios,
	// which know messages only by name, put a send's or delivery's
	// annotation here instead.
	Ctx string
	// Name carries the holdback reason, span name, or mark text.
	Name string
	seq  int // insertion order, tiebreak for identical times
}

// Tracer records lifecycle events for one run. It is safe for
// concurrent use (the live HTTP plane reads it while tcpnet's
// dispatcher and connection goroutines record); a nil Tracer is valid and records nothing, so
// instrumented code needs only `if t != nil`-free method calls.
type Tracer struct {
	mu     sync.Mutex
	events []Event
	labels map[int]string
	// s, when non-nil, switches the tracer into sampled mode: events
	// route through head sampling and ring retention (sampler.go)
	// instead of the unbounded events slice.
	s *sampler
}

// NewTracer returns an empty recorder.
func NewTracer() *Tracer {
	return &Tracer{labels: make(map[int]string)}
}

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// SetNodeLabel names a node's column in rendered diagrams ("P", "Q",
// "sfc1"). Unlabeled nodes render as "n<id>".
func (t *Tracer) SetNodeLabel(node int, label string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.labels[node] = label
	t.mu.Unlock()
}

// Labels returns a copy of the node-label map.
func (t *Tracer) Labels() map[int]string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int]string, len(t.labels))
	for k, v := range t.labels {
		out[k] = v
	}
	return out
}

func (t *Tracer) record(e Event) {
	if t == nil {
		return
	}
	// Sampled mode: decide admission before taking the lock. The
	// decision reads only immutable sampler fields, so the unwanted
	// path — the overwhelming majority at low rates — costs one hash
	// and no synchronization.
	if s := t.s; s != nil && !s.wants(e.Msg) {
		return
	}
	t.mu.Lock()
	if t.s != nil {
		t.s.record(e)
	} else {
		e.seq = len(t.events)
		t.events = append(t.events, e)
	}
	t.mu.Unlock()
}

// Wants reports whether events for msg would be retained: always true
// for a plain (record-everything) tracer, the head-sampling decision in
// sampled mode, false for a nil tracer. Instrumented hot paths use it
// to skip building expensive event context — vector-clock strings,
// stability frontiers — for messages the sampler would drop anyway; the
// check reads only immutable state and takes no lock.
func (t *Tracer) Wants(msg MsgRef) bool {
	if t == nil {
		return false
	}
	s := t.s
	return s == nil || s.sampleHash(msg) < s.threshold
}

// WantsWire reports whether events for a wire payload should be built,
// without extracting its ref on the unwanted path: the sender's cached
// decision (TraceHinted) is read first, the sampling hash is the
// fallback. A plain tracer ignores hints — it wants everything a ref
// can name; payloads without refs (acks, heartbeats) are never wanted.
func (t *Tracer) WantsWire(payload any) bool {
	if t == nil {
		return false
	}
	s := t.s
	if s == nil {
		_, ok := payload.(Referable)
		return ok
	}
	if h, ok := payload.(TraceHinted); ok {
		if w, known := h.TraceWanted(); known {
			return w
		}
	}
	ref, ok := RefOf(payload)
	return ok && s.wants(ref)
}

// Send records a broadcast origination.
func (t *Tracer) Send(at time.Duration, node int, msg MsgRef, ctx string) {
	t.record(Event{T: at, Node: node, Kind: KSend, Msg: msg, Ctx: ctx})
}

// WireRecv records raw arrival of a message copy at a node.
func (t *Tracer) WireRecv(at time.Duration, node int, msg MsgRef) {
	t.record(Event{T: at, Node: node, Kind: KWireRecv, Msg: msg})
}

// Holdback records a message entering an ordering holdback queue for
// the stated reason.
func (t *Tracer) Holdback(at time.Duration, node int, msg MsgRef, reason string) {
	t.record(Event{T: at, Node: node, Kind: KHoldback, Msg: msg, Name: reason})
}

// Deliver records delivery to the application.
func (t *Tracer) Deliver(at time.Duration, node int, msg MsgRef, ctx string) {
	t.record(Event{T: at, Node: node, Kind: KDeliver, Msg: msg, Ctx: ctx})
}

// Stabilize records a message becoming stable at a node.
func (t *Tracer) Stabilize(at time.Duration, node int, msg MsgRef, ctx string) {
	t.record(Event{T: at, Node: node, Kind: KStabilize, Msg: msg, Ctx: ctx})
}

// SpanBegin opens a named span at a node.
func (t *Tracer) SpanBegin(at time.Duration, node int, name string) {
	t.record(Event{T: at, Node: node, Kind: KSpanBegin, Name: name})
}

// SpanEnd closes a named span at a node.
func (t *Tracer) SpanEnd(at time.Duration, node int, name string) {
	t.record(Event{T: at, Node: node, Kind: KSpanEnd, Name: name})
}

// Mark records an instantaneous annotation at a node.
func (t *Tracer) Mark(at time.Duration, node int, name string) {
	t.record(Event{T: at, Node: node, Kind: KMark, Name: name})
}

// Len returns the number of recorded events (retained events, in
// sampled mode).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.s != nil {
		n := 0
		for _, lc := range t.s.lifecycles {
			n += len(lc)
		}
		return n
	}
	return len(t.events)
}

// Events returns the recorded events sorted by (time, insertion
// order). The copy is safe to hold across further recording.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var out []Event
	if t.s != nil {
		out = t.s.events()
	} else {
		out = make([]Event, len(t.events))
		copy(out, t.events)
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].T != out[j].T {
			return out[i].T < out[j].T
		}
		return out[i].seq < out[j].seq
	})
	return out
}

// nodeLabel names a node for rendering: the registered label or
// "n<id>".
func nodeLabel(labels map[int]string, node int) string {
	if l, ok := labels[node]; ok && l != "" {
		return l
	}
	return fmt.Sprintf("n%d", node)
}
