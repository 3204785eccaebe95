// Package sim provides a deterministic discrete-event simulation kernel.
//
// Every experiment in this repository runs on virtual time: protocol
// stacks schedule events on a Kernel, and the kernel executes them in
// timestamp order with a deterministic tiebreak. Given the same seed,
// a run is bit-for-bit reproducible, which is what lets us reproduce
// the paper's ordering anomalies (Figures 2-4) on demand rather than
// waiting for an unlucky scheduling on a real network.
//
// The kernel is intentionally tiny: a 4-ary min-heap of events keyed
// by (time, seq), a virtual clock, and a seeded PRNG. Everything else —
// links, nodes, protocols — lives in higher layers. seq is a counter
// taken when an event is scheduled, so events at one instant fire in
// the order they were scheduled. Every event is a (func(any), any)
// pair: AtCall takes one directly and At wraps its thunk as the
// argument of a shared runner, so a steady-state scheduling loop
// allocates nothing per event.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// event is one scheduled call(arg), keyed by (at, seq).
type event struct {
	at   time.Duration
	seq  uint64
	call func(any)
	arg  any
}

// before reports whether e fires before o.
func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// runThunk is the call of every At event: its argument is the thunk.
// A func value is pointer-shaped, so storing it in an interface
// allocates nothing.
func runThunk(f any) { f.(func())() }

// Kernel is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use: all protocol code runs inside kernel events, so
// the whole simulated world is single-threaded by construction —
// exactly the "processes interleave arbitrarily" model the paper's
// event diagrams assume, without data races.
type Kernel struct {
	now   time.Duration
	heap  []event // 4-ary min-heap on (at, seq)
	seq   uint64  // tiebreak of the next scheduled event
	rng   *rand.Rand
	fired uint64
	limit uint64 // safety valve against runaway simulations; 0 = none
}

// NewKernel returns a kernel with virtual time 0 and a PRNG seeded with
// seed. Two kernels with the same seed and the same scheduled workload
// execute identically.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Rand returns the kernel's deterministic PRNG. All randomness in a
// simulation (link jitter, loss, workload arrivals) must come from
// here to preserve reproducibility.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// SetEventLimit installs a safety limit on the number of events a Run
// may fire; exceeding it panics. Useful in tests of protocols that
// could livelock.
func (k *Kernel) SetEventLimit(n uint64) { k.limit = n }

// At schedules f to run at absolute virtual time t. Scheduling in the
// past is a programming error and panics: silent reordering of the
// past would invalidate every causality experiment built on top.
func (k *Kernel) At(t time.Duration, f func()) { k.AtCall(t, runThunk, f) }

// AtCall schedules call(arg) at absolute virtual time t. A caller with
// per-event state passes it in arg to a callback shared across events,
// so no closure is built per schedule.
func (k *Kernel) AtCall(t time.Duration, call func(any), arg any) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, k.now))
	}
	h := append(k.heap, event{})
	i := len(h) - 1
	e := event{at: t, seq: k.seq, call: call, arg: arg}
	k.seq++
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	k.heap = h
}

// After schedules f to run d after the current virtual time.
func (k *Kernel) After(d time.Duration, f func()) { k.AfterCall(d, runThunk, f) }

// AfterCall schedules call(arg) d after the current virtual time; see
// AtCall.
func (k *Kernel) AfterCall(d time.Duration, call func(any), arg any) {
	if d < 0 {
		d = 0
	}
	k.AtCall(k.now+d, call, arg)
}

// Pending returns the number of scheduled, unfired events.
func (k *Kernel) Pending() int { return len(k.heap) }

// Fired returns the total number of events executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// pop removes and returns the earliest event.
func (k *Kernel) pop() event {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop references so fired thunks can be collected
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			for j, end := c+1, min(c+4, n); j < end; j++ {
				if h[j].before(&h[m]) {
					m = j
				}
			}
			if !h[m].before(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	k.heap = h
	return top
}

// Step fires the single earliest event, advancing the clock to its
// timestamp. It reports false when no events remain.
func (k *Kernel) Step() bool {
	if len(k.heap) == 0 {
		return false
	}
	e := k.pop()
	k.now = e.at
	k.fired++
	if k.limit != 0 && k.fired > k.limit {
		panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v", k.limit, k.now))
	}
	e.call(e.arg)
	return true
}

// Run fires events until none remain.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, advancing the
// clock to the deadline afterwards even if the queue drained early.
// Events scheduled beyond the deadline remain queued.
func (k *Kernel) RunUntil(deadline time.Duration) {
	for len(k.heap) > 0 && k.heap[0].at <= deadline {
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
}
