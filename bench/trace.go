package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"time"

	"catocs"
	"catocs/internal/obs"
	"catocs/internal/transport"
	"catocs/internal/wire"
)

// Tracing is done entirely from here: a transport.Network decorator
// handed to each member times Send, the inbound handler and timer
// callbacks; the driver times Member.Multicast and the deliver
// callback. Nothing in the program under test knows it is traced.

type spanKind uint8

const (
	spanCast    spanKind = iota // one Member.Multicast call
	spanHandle                  // one inbound handler call
	spanTimer                   // one After callback (ack flush, NACK, order flush)
	spanSend                    // one Network.Send call
	spanDeliver                 // one deliver callback
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"multicast.cast", "multicast.handle", "multicast.timer", "net.send", "app.deliver"}

// span is one retained trace record. Parent indexes the same member's
// span list (-1 for a root); Sender/Seq are the message ref
// (obs.RefOf), zero for work not tied to one data message.
type span struct {
	Kind   spanKind
	Parent int32
	Start  int64
	End    int64
	Sender int64
	Seq    uint64
}

// spanAgg accumulates every span of one kind, retained or not.
type spanAgg struct{ n, total, self int64 }

type openSpan struct {
	kind  spanKind
	idx   int32 // index in spans, -1 when not retained
	start int64
	child int64 // time covered by child spans
}

const (
	// Every spanSampleEvery'th message (by sequence number) has its
	// spans retained for the trace file, children included; aggregates
	// cover all of them.
	spanSampleEvery = 64
	// Every captureEvery'th Send has its encoded payload kept for the
	// offline wire loops.
	captureEvery     = 1000
	capturePerMember = 512
)

type msgClass uint8

const (
	classData msgClass = iota
	classRetrans
	classOrder
	classCtrl
	numClasses
)

// classOf sorts a protocol message by its Go type name, so the
// benchmark names no message type of the program under test.
func classOf(t reflect.Type) msgClass {
	if t.Kind() == reflect.Ptr {
		t = t.Elem()
	}
	switch name := t.Name(); {
	case name == "DataMsg":
		return classData
	case name == "RetransMsg":
		return classRetrans
	case strings.HasPrefix(name, "Order") && !strings.Contains(name, "Nack"):
		return classOrder
	default:
		return classCtrl
	}
}

type arrivalSlot struct {
	seq uint64
	at  int64
}

type capturedFrame struct {
	kind wire.Kind
	body []byte
}

// traceShared holds the tables members of a TCP fleet write for each
// other: one process, one clock, so a sender's instants can be
// subtracted from a receiver's.
type traceShared struct {
	mask uint64
	n    int
	// castStart[w][seq&mask] is when writer w's Member.Multicast for
	// seq was entered; sendAt[w][(seq&mask)*n+to] when its data message
	// for member `to` entered Network.Send. Nil in a simulation, where
	// the chain below the holdback is virtual link delay.
	castStart [][]atomic.Int64
	sendAt    [][]atomic.Int64
}

func newTraceShared(n, writers, ringBits int, chain bool) *traceShared {
	s := &traceShared{mask: 1<<ringBits - 1, n: n}
	if chain {
		for w := 0; w < writers; w++ {
			s.castStart = append(s.castStart, make([]atomic.Int64, 1<<ringBits))
			s.sendAt = append(s.sendAt, make([]atomic.Int64, n<<ringBits))
		}
	}
	return s
}

// endpointTrace is one member's trace state, touched only on that
// member's dispatch context. Everything is preallocated: recording a
// span or a sample allocates nothing.
type endpointTrace struct {
	e  *endpoint
	sh *traceShared

	stack [8]openSpan
	depth int
	// slot selects which aggregate set spans land in: 0 for the
	// saturated (or scripted) phase, 1 for the light phase.
	slot  int
	agg   [2][numSpanKinds]spanAgg
	sends [2][numClasses]int64
	spans []span
	ticks uint64 // spans without a message ref seen, for sampling

	arrival [][]arrivalSlot // [writer][seq&mask]: first handler entry
	cur     obs.MsgRef      // data message whose handler call is running
	curOK   bool

	// The chain due -> deliver of a timed delivery, split at the layer
	// boundaries; the four parts sum to the end-to-end latency sample.
	late, castToSend, transit, hold hist
	timed, held                     int64
	pendingPeak                     int64

	orderMsgs int64
	lastOrder any
	classes   map[reflect.Type]msgClass
	sendTick  uint64
	captured  []capturedFrame

	// dispatch-wait probe (TCP): probeAt is when the probe was injected,
	// 0 when none is outstanding.
	probeAt      atomic.Int64
	dispatchWait [2]hist
}

// newEndpointTrace preallocates one member's trace state; spanCap
// bounds the spans retained for the trace file.
func newEndpointTrace(e *endpoint, sh *traceShared, writers, spanCap int) *endpointTrace {
	t := &endpointTrace{
		e: e, sh: sh,
		spans:    make([]span, 0, spanCap),
		classes:  make(map[reflect.Type]msgClass),
		captured: make([]capturedFrame, 0, capturePerMember),
	}
	for w := 0; w < writers; w++ {
		t.arrival = append(t.arrival, make([]arrivalSlot, sh.mask+1))
	}
	return t
}

func (t *endpointTrace) begin(k spanKind, ref obs.MsgRef, hasRef bool) {
	if t.depth == len(t.stack) {
		panic("bench: span stack overflow")
	}
	now := wallNow()
	parent, idx := int32(-1), int32(-1)
	keep := false
	if t.depth > 0 {
		parent = t.stack[t.depth-1].idx
		keep = parent >= 0
	} else if hasRef {
		keep = ref.Seq%spanSampleEvery == 0
	} else {
		t.ticks++
		keep = t.ticks%spanSampleEvery == 0
	}
	if keep && len(t.spans) < cap(t.spans) {
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{Kind: k, Parent: parent, Start: now, Sender: ref.Sender, Seq: ref.Seq})
	}
	t.stack[t.depth] = openSpan{kind: k, idx: idx, start: now}
	t.depth++
}

func (t *endpointTrace) end() {
	now := wallNow()
	t.depth--
	s := &t.stack[t.depth]
	dur := now - s.start
	a := &t.agg[t.slot][s.kind]
	a.n++
	a.total += dur
	a.self += dur - s.child
	if t.depth > 0 {
		t.stack[t.depth-1].child += dur
	}
	if s.idx >= 0 {
		t.spans[s.idx].End = now
	}
}

// beginCast opens the span around Member.Multicast for this member's
// cast number seq.
func (t *endpointTrace) beginCast(seq uint64) {
	t.begin(spanCast, obs.MsgRef{Sender: int64(t.e.rank), Seq: seq}, true)
	if t.sh.castStart != nil {
		t.sh.castStart[t.e.writer][seq&t.sh.mask].Store(t.stack[t.depth-1].start)
	}
}

// handle wraps the member's inbound handler.
func (t *endpointTrace) handle(from transport.NodeID, payload any, h transport.Handler) {
	ref, hasRef := obs.RefOf(payload)
	if hasRef {
		if w := t.writerOf(ref.Sender); w >= 0 {
			if s := &t.arrival[w][ref.Seq&t.sh.mask]; s.seq != ref.Seq {
				*s = arrivalSlot{seq: ref.Seq, at: t.e.g.now()}
			}
		}
	}
	t.cur, t.curOK = ref, hasRef
	t.begin(spanHandle, ref, hasRef)
	h(from, payload)
	t.end()
	t.curOK = false
	if p := int64(t.e.m.PendingCount()); p > t.pendingPeak {
		t.pendingPeak = p
	}
}

func (t *endpointTrace) writerOf(sender int64) int {
	if sender < 0 || sender >= int64(len(t.e.g.writerOf)) {
		return -1
	}
	return t.e.g.writerOf[sender]
}

// send wraps Network.Send.
func (t *endpointTrace) send(inner transport.Network, from, to transport.NodeID, payload any) {
	typ := reflect.TypeOf(payload)
	cls, known := t.classes[typ]
	if !known {
		cls = classOf(typ)
		t.classes[typ] = cls
	}
	t.sends[t.slot][cls]++
	if cls == classOrder && typ.Kind() == reflect.Ptr && payload != t.lastOrder {
		// One announcement fans out as consecutive Sends of one pointer.
		t.orderMsgs++
		t.lastOrder = payload
	}
	if t.sendTick++; t.sendTick%captureEvery == 0 && len(t.captured) < cap(t.captured) {
		if kind, body, err := wire.MarshalAppend(nil, payload); err == nil {
			t.captured = append(t.captured, capturedFrame{kind, body})
		}
	}
	ref, hasRef := obs.RefOf(payload)
	t.begin(spanSend, ref, hasRef)
	if cls == classData && t.sh.sendAt != nil {
		if w := t.writerOf(ref.Sender); w >= 0 && int(to) < t.sh.n {
			t.sh.sendAt[w][(ref.Seq&t.sh.mask)*uint64(t.sh.n)+uint64(to)].Store(t.stack[t.depth-1].start)
		}
	}
	inner.Send(from, to, payload)
	t.end()
}

// deliver wraps the deliver callback and, for a timed delivery, splits
// its latency along the chain.
func (t *endpointTrace) deliver(d catocs.Delivered) {
	ref := obs.MsgRef{Sender: int64(d.ID.Sender), Seq: d.ID.Seq}
	g := t.e.g
	now := g.now()
	t.begin(spanDeliver, ref, true)
	h, ok := t.e.deliverAt(d, now)
	t.end()
	if !ok || h.phase != g.timed || h.window >= len(t.e.lat) {
		return
	}
	arrived := t.arrival[h.writer][ref.Seq&t.sh.mask]
	if arrived.seq != ref.Seq {
		return
	}
	t.timed++
	if !t.curOK || t.cur.Sender != ref.Sender || t.cur.Seq != ref.Seq {
		t.held++
	}
	t.hold.record(now - arrived.at)
	if t.sh.sendAt != nil {
		cast := t.sh.castStart[h.writer][ref.Seq&t.sh.mask].Load()
		sent := t.sh.sendAt[h.writer][(ref.Seq&t.sh.mask)*uint64(t.sh.n)+uint64(t.e.rank)].Load()
		t.late.record(cast - h.due)
		t.castToSend.record(sent - cast)
		t.transit.record(arrived.at - sent)
	}
}

// probe runs on the dispatcher when an injected dispatch-wait probe
// gets its turn.
func (t *endpointTrace) probe() {
	if at := t.probeAt.Swap(0); at != 0 {
		t.dispatchWait[t.slot].record(wallNow() - at)
	}
}

// tracedNet is the transport.Network decorator a traced member is
// built on.
type tracedNet struct {
	inner transport.Network
	t     *endpointTrace
}

func (n *tracedNet) Register(id transport.NodeID, h transport.Handler) {
	n.inner.Register(id, func(from transport.NodeID, payload any) { n.t.handle(from, payload, h) })
}

func (n *tracedNet) Send(from, to transport.NodeID, payload any) {
	n.t.send(n.inner, from, to, payload)
}

func (n *tracedNet) Now() time.Duration { return n.inner.Now() }

func (n *tracedNet) After(d time.Duration, f func()) {
	n.inner.After(d, func() {
		n.t.begin(spanTimer, obs.MsgRef{}, false)
		f()
		n.t.end()
	})
}

// networkFor returns the network a member is built on: the real one,
// or its tracing decorator.
func (e *endpoint) networkFor(inner transport.Network) transport.Network {
	if e.tr == nil {
		return inner
	}
	return &tracedNet{inner: inner, t: e.tr}
}

// traceTotals is every member's trace state folded together after the
// run.
type traceTotals struct {
	agg                             [2][numSpanKinds]spanAgg
	sends                           [2][numClasses]int64
	late, castToSend, transit, hold hist
	dispatchWait                    [2]hist
	timed, held                     int64
	pendingPeak                     int64
	orderMsgs                       int64
	captured                        []capturedFrame
	// spans[i] is a copy of the spans member ranks[i] retained, for the
	// trace file.
	spans [][]span
	ranks []int
}

// fold adds one member's trace state to the totals. It reads what that
// member's dispatch context writes, so on a live fleet it must run on
// that member's dispatcher: the members' ack timers go on firing, and
// recording spans, after the last cast has drained.
func (tt *traceTotals) fold(e *endpoint) {
	t := e.tr
	for s := range t.agg {
		for k, a := range t.agg[s] {
			tt.agg[s][k].n += a.n
			tt.agg[s][k].total += a.total
			tt.agg[s][k].self += a.self
		}
		for c, n := range t.sends[s] {
			tt.sends[s][c] += n
		}
		tt.dispatchWait[s].merge(&t.dispatchWait[s])
	}
	tt.late.merge(&t.late)
	tt.castToSend.merge(&t.castToSend)
	tt.transit.merge(&t.transit)
	tt.hold.merge(&t.hold)
	tt.timed += t.timed
	tt.held += t.held
	if t.pendingPeak > tt.pendingPeak {
		tt.pendingPeak = t.pendingPeak
	}
	tt.orderMsgs += t.orderMsgs
	tt.captured = append(tt.captured, t.captured...)
	tt.spans = append(tt.spans, append([]span(nil), t.spans...))
	tt.ranks = append(tt.ranks, e.rank)
}

// selfMean is the mean self time, in ns, of one span kind in one slot.
func (tt *traceTotals) selfMean(slot int, k spanKind) float64 {
	a := tt.agg[slot][k]
	if a.n == 0 {
		return 0
	}
	return float64(a.self) / float64(a.n)
}

// wireStats is what wireProbe measures.
type wireStats struct {
	encodeNs, decodeNs float64
	dataFrameBytes     float64
	headerBytes        float64
	sizeModelErrPct    float64
	frames, dataFrames int
}

// wireProbe replays the captured payloads through the codec, off the
// measured path, and reports what encode and decode cost and how far
// the simulator's size model is from the real encoding.
func wireProbe(frames []capturedFrame, appPayload int) wireStats {
	var ws wireStats
	if len(frames) == 0 {
		return ws
	}
	const reps = 50
	var encNs, decNs time.Duration
	var ops int
	var dataBytes int
	var errSum float64
	var errN int
	var buf []byte
	for _, f := range frames {
		var decoded any
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			p, err := wire.Unmarshal(f.kind, f.body)
			if err != nil {
				break
			}
			decoded = p
		}
		t1 := time.Now()
		if decoded == nil {
			continue
		}
		for i := 0; i < reps; i++ {
			_, buf, _ = wire.MarshalAppend(buf[:0], decoded)
		}
		t2 := time.Now()
		decNs += t1.Sub(t0)
		encNs += t2.Sub(t1)
		ops += reps
		ws.frames++
		if classOf(reflect.TypeOf(decoded)) == classData {
			ws.dataFrames++
			dataBytes += len(f.body)
		}
		if enc, ok := wire.EncodedSize(decoded); ok && enc > 0 {
			diff := float64(transport.ApproxSize(decoded) - enc)
			if diff < 0 {
				diff = -diff
			}
			errSum += diff / float64(enc)
			errN++
		}
	}
	if ops > 0 {
		ws.encodeNs = float64(encNs) / float64(ops)
		ws.decodeNs = float64(decNs) / float64(ops)
	}
	if ws.dataFrames > 0 {
		ws.dataFrameBytes = float64(dataBytes) / float64(ws.dataFrames)
		ws.headerBytes = ws.dataFrameBytes - float64(appPayload)
	}
	if errN > 0 {
		ws.sizeModelErrPct = 100 * errSum / float64(errN)
	}
	return ws
}

// traceFile is the JSON document -trace-file writes: every retained
// span, times in ns since process start.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Clock    string      `json:"clock"`
	Spans    []traceSpan `json:"spans"`
}

type traceSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // id of the enclosing span, -1 for a root
	Name   string `json:"name"`
	Member int    `json:"member"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Sender int64  `json:"ref_sender"` // message ref: casting rank...
	Seq    uint64 `json:"ref_seq"`    // ...and its cast number; 0 = none
}

func writeTraceFile(path, workload string, seed int64, tt *traceTotals) error {
	doc := traceFile{Workload: workload, Seed: seed, Clock: "ns since process start"}
	for m, spans := range tt.spans {
		base := len(doc.Spans)
		for i, s := range spans {
			parent := -1
			if s.Parent >= 0 {
				parent = base + int(s.Parent)
			}
			doc.Spans = append(doc.Spans, traceSpan{
				ID: base + i, Parent: parent, Name: spanNames[s.Kind], Member: tt.ranks[m],
				Start: s.Start, End: s.End, Sender: s.Sender, Seq: s.Seq,
			})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("trace file %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file %s: %w", path, err)
	}
	return nil
}
