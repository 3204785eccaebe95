package main

import (
	"sort"
	"sync/atomic"
	"time"

	"catocs"
)

// phase tags every cast with the part of the run that issued it, so a
// delivery knows from its own payload whether it is timed, and nothing
// global has to change while messages are in flight.
type phase uint8

const (
	phaseWarm   phase = iota // set-up warm-up, discarded
	phaseSat                 // closed loop, 32 casts in flight per member
	phaseLight               // closed loop, 1 cast in flight per member
	phaseScript              // scripted simulation
	numPhases
)

var processStart = time.Now()

// wallNow is the span clock and the TCP run clock: monotonic
// nanoseconds since process start, one clock for every member because
// the whole fleet lives in this process.
func wallNow() int64 { return int64(time.Since(processStart)) }

// group is what the endpoints of one fleet or one simulated world
// share.
type group struct {
	n        int
	writerOf []int // rank -> writer index, -1 for members that never cast
	// now is the run clock latencies are taken on: wallNow for TCP, the
	// kernel's virtual clock in a simulation.
	now func() int64
	// timed is the phase whose deliveries are timed due -> deliver.
	timed     phase
	done      *completion
	completed [numPhases]atomic.Int64
	// tokens hands each completed closed-loop cast's writer back to the
	// driver. It is buffered to the number of casts the closed loop
	// keeps outstanding, so a dispatcher never blocks on it.
	tokens chan int
	trace  *traceShared // nil when untraced
}

// endpoint is one group member plus the harness state that lives on
// its dispatch context (tcpnet dispatcher or simulation kernel).
type endpoint struct {
	rank   int
	writer int // writer index, -1 if this member never casts
	g      *group
	m      *catocs.Member
	oracle memberOracle
	// lat is due -> deliver for the timed phase, one histogram per
	// measurement window: the run reports the median window, so a stall
	// in one second of the run moves one window, not the result.
	lat []hist

	deliveries [numPhases]atomic.Int64
	refused    atomic.Int64 // casts Multicast would not stamp

	tr *endpointTrace // nil when untraced

	// TCP only: casts travel from the driver goroutine to the
	// dispatcher through a preallocated single-producer ring, so issuing
	// one allocates nothing but its payload. castFn is the method value
	// handed to Inject, built once.
	castQ    [][]byte
	castHead atomic.Uint64
	castTail atomic.Uint64
	castFn   func()
}

func newEndpoint(g *group, rank, windows int) *endpoint {
	e := &endpoint{rank: rank, writer: g.writerOf[rank], g: g, lat: make([]hist, windows)}
	for _, w := range g.writerOf {
		if w >= 0 {
			e.oracle.writers++
		}
	}
	return e
}

// deliverFunc returns the callback handed to NewMember.
func (e *endpoint) deliverFunc() catocs.DeliverFunc {
	if e.tr != nil {
		return e.tr.deliver
	}
	return func(d catocs.Delivered) { e.deliverAt(d, e.g.now()) }
}

// deliverAt is the application's side of a delivery: check it, time it
// if its phase is the timed one, and count it toward its cast's
// completion.
func (e *endpoint) deliverAt(d catocs.Delivered, now int64) (castHeader, bool) {
	p, _ := d.Payload.([]byte)
	h, ok := e.oracle.observe(p)
	if !ok {
		return h, false
	}
	e.deliveries[h.phase].Add(1)
	if h.phase == e.g.timed && h.window < len(e.lat) {
		e.lat[h.window].record(now - h.due)
	}
	if e.g.done.delivered(h.cast) {
		e.g.completed[h.phase].Add(1)
		if e.g.tokens != nil {
			e.g.tokens <- h.writer
		}
	}
	return h, true
}

// cast stamps the payload's causal dependencies and multicasts it.
// Runs on the member's dispatch context.
func (e *endpoint) cast(p []byte) {
	e.oracle.stamp(p)
	wseq := uint64(readHeader(p).wseq)
	if e.tr != nil {
		e.tr.beginCast(wseq)
	}
	id := e.m.Multicast(p, len(p))
	if e.tr != nil {
		e.tr.end()
	}
	// The member stamps casts 1, 2, 3... in call order; anything else
	// (a zero id from a parked or refused cast) breaks the oracle's
	// bookkeeping and is a failed cast.
	if id.Seq != wseq || int(id.Sender) != e.rank {
		e.refused.Add(1)
	}
}

// castNext pops one queued payload and casts it (TCP).
func (e *endpoint) castNext() {
	head := e.castHead.Load()
	slot := &e.castQ[head&uint64(len(e.castQ)-1)]
	p := *slot
	*slot = nil
	e.castHead.Store(head + 1)
	e.cast(p)
}

// enqueueCast hands a payload to the dispatcher side; false when the
// ring is full because the dispatcher is that far behind.
func (e *endpoint) enqueueCast(p []byte) bool {
	tail := e.castTail.Load()
	if tail-e.castHead.Load() >= uint64(len(e.castQ)) {
		return false
	}
	e.castQ[tail&uint64(len(e.castQ)-1)] = p
	e.castTail.Store(tail + 1)
	return true
}

// median returns the middle of xs (mean of the middle two when even);
// xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}
