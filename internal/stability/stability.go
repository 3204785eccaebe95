// Package stability implements the unstable-message buffering and
// matrix-clock stability tracking that atomic CATOCS delivery requires:
// every member retains a copy of each message until it is known to have
// been delivered at every other member, so that retransmission is
// possible even after the original sender fails.
//
// This buffer is the object of the paper's Section 5 scalability
// argument — its occupancy is expected to grow with group size and
// without bound under a slow receiver — so the tracker instruments
// occupancy in messages and bytes, high-water marks, and eviction
// counts directly, and optionally enforces a flowcontrol.Budget by
// spilling overflow to a wal.SpillStore (the Spill policy's mechanism;
// the Block/Shed/Suspect mechanisms live with the sender in
// internal/multicast).
package stability

import (
	"time"

	"catocs/internal/flowcontrol"
	"catocs/internal/metrics"
	"catocs/internal/obs"
	"catocs/internal/seqwin"
	"catocs/internal/vclock"
	"catocs/internal/wal"
)

// Key identifies a buffered message: the seq'th multicast from a
// sender.
type Key struct {
	Sender vclock.ProcessID
	Seq    uint64
}

func (k Key) spillKey() wal.SpillKey {
	return wal.SpillKey{Sender: int64(k.Sender), Seq: k.Seq}
}

// entry is one unstable message with its approximate encoded size. A
// spilled entry's message lives in the spill store, not in msg.
type entry struct {
	msg     any
	size    int
	spilled bool
}

// Tracker is one member's unstable-message buffer plus the matrix
// clock that decides when entries may be discarded. Not safe for
// concurrent use; the owning member serializes access.
type Tracker struct {
	n      int
	matrix *vclock.Matrix
	// bufQ holds every unstable message, in memory or spilled, in one
	// sequence window per sender; bufLen counts the in-memory entries
	// and spilledLen the spilled ones. evictedTo[s] is the eviction
	// frontier: every message from s with seq <= evictedTo[s] has
	// already been evicted (or was never buffered), so the window's keys
	// all lie above it and stabilization pops the window's front.
	bufQ       []seqwin.Window[entry]
	bufLen     int
	spilledLen int
	evictedTo  []uint64
	memBytes   int
	perBytes   []int // in-memory + spilled unstable bytes per sender
	occupancy  metrics.Gauge
	bytes      metrics.Gauge
	evicted    metrics.Counter
	buffered   metrics.Counter
	spilled    metrics.Counter

	// Budget bounds the in-memory buffer; enforcement requires a spill
	// store (without one the tracker only measures — the sender-side
	// admission window is the other enforcement site).
	budget flowcontrol.Budget
	spill  *wal.SpillStore

	// Optional trace wiring (Instrument): stabilization events are
	// part of a message's lifecycle, so eviction records one trace
	// event per message with the stability frontier as causal context.
	trace     *obs.Tracer
	traceNode int
	traceNow  func() time.Duration
}

// New returns a tracker for a group of n members.
func New(n int) *Tracker {
	return &Tracker{
		n:         n,
		matrix:    vclock.NewMatrix(n),
		bufQ:      make([]seqwin.Window[entry], n),
		evictedTo: make([]uint64, n),
		perBytes:  make([]int, n),
	}
}

// SetBudget bounds the in-memory buffer. With a spill store attached
// (SetSpill), admissions past the budget overflow to stable storage;
// without one the budget is advisory (Overflowing reports it).
func (t *Tracker) SetBudget(b flowcontrol.Budget) { t.budget = b }

// Budget returns the configured budget (zero value = unlimited).
func (t *Tracker) Budget() flowcontrol.Budget { return t.budget }

// SetSpill attaches the overflow store the Spill policy writes to.
func (t *Tracker) SetSpill(s *wal.SpillStore) { t.spill = s }

// Spill returns the attached spill store, or nil.
func (t *Tracker) Spill() *wal.SpillStore { return t.spill }

// Buffer retains msg (with its approximate encoded size) under k until
// stability. Re-buffering an existing key (a retransmitted copy) is a
// no-op. When a budget and spill store are configured and the
// admission would exceed the budget, the message spills to stable
// storage instead of memory — occupancy stays bounded and the copy
// remains reachable for NACK-driven retransmission via Get.
func (t *Tracker) Buffer(k Key, msg any, size int) {
	// An out-of-range sender rank has no matrix row and could never
	// stabilize; refusing it keeps the buffer from leaking forever.
	if int(k.Sender) < 0 || int(k.Sender) >= t.n {
		return
	}
	// A buffered key is a retransmitted copy; a message already known
	// stable must not re-enter the buffer (a late duplicate would
	// otherwise linger forever).
	if t.bufQ[k.Sender].Has(k.Seq) || k.Seq <= t.evictedTo[k.Sender] || t.matrix.Stable(k.Sender, k.Seq) {
		return
	}
	t.buffered.Inc()
	if t.spill != nil && t.budget.Limited() && !t.budget.Admits(t.bufLen, t.memBytes, size) {
		t.spill.Put(k.spillKey(), msg, size)
		t.bufQ[k.Sender].Put(k.Seq, entry{size: size, spilled: true})
		t.spilledLen++
		t.spilled.Inc()
		t.perBytes[k.Sender] += size
		return
	}
	t.bufQ[k.Sender].Put(k.Seq, entry{msg: msg, size: size})
	t.bufLen++
	t.memBytes += size
	t.perBytes[k.Sender] += size
	t.setGauges()
}

// setGauges publishes the in-memory occupancy in messages and bytes.
// Every admission and removal path funnels through here, so the gauges
// decrement on spill, shed, and eviction — not only on stabilize.
func (t *Tracker) setGauges() {
	t.occupancy.Set(int64(t.bufLen))
	t.bytes.Set(int64(t.memBytes))
}

// Get returns the buffered message for k, checking memory first and
// then the spill store (a spill-store hit models the NACK-path reload
// and is counted there).
func (t *Tracker) Get(k Key) (any, bool) {
	if int(k.Sender) < 0 || int(k.Sender) >= t.n {
		return nil, false
	}
	e, ok := t.bufQ[k.Sender].Get(k.Seq)
	if ok && e.spilled {
		return t.spill.Get(k.spillKey())
	}
	return e.msg, ok
}

// Remove discards k from the buffer (memory or spill) without waiting
// for stability — the shed and view-change paths. It reports whether
// anything was removed.
func (t *Tracker) Remove(k Key) bool {
	if int(k.Sender) < 0 || int(k.Sender) >= t.n {
		return false
	}
	e, ok := t.bufQ[k.Sender].Delete(k.Seq)
	if ok {
		t.drop(k, e)
		t.setGauges()
	}
	return ok
}

// drop settles the accounting of entry e, just removed under k: its
// memory or its spill-store copy goes.
func (t *Tracker) drop(k Key, e entry) {
	if e.spilled {
		t.spill.Drop(k.spillKey())
		t.spilledLen--
	} else {
		t.bufLen--
		t.memBytes -= e.size
	}
	t.perBytes[k.Sender] -= e.size
}

// Instrument attaches a trace recorder: each eviction (a message
// becoming stable at this member) records a stabilize event stamped
// node and now(). A nil tracer detaches.
func (t *Tracker) Instrument(tr *obs.Tracer, node int, now func() time.Duration) {
	t.trace = tr
	t.traceNode = node
	t.traceNow = now
}

// ObserveAck merges process p's delivered clock into the matrix and
// evicts every buffered or spilled message that became stable. It
// returns the number of evictions (spill drops included).
//
// Eviction pops each sender's window from the front up to its
// stability frontier rather than scanning the whole buffer, so an ack
// costs O(newly stable) instead of O(buffered) — the per-ack cost the
// batched-ack path amortizes further.
func (t *Tracker) ObserveAck(p vclock.ProcessID, delivered vclock.VC) int {
	t.matrix.Update(p, delivered)
	min := t.matrix.Min()
	evicted := 0
	var gone []Key // in (sender, seq) order
	for s := 0; s < t.n; s++ {
		upto := min[s]
		if upto <= t.evictedTo[s] {
			continue
		}
		w := &t.bufQ[s]
		for seq, ok := w.Min(); ok && seq <= upto; seq, ok = w.Min() {
			k := Key{Sender: vclock.ProcessID(s), Seq: seq}
			e, _ := w.Delete(seq)
			t.drop(k, e)
			evicted++
			if t.trace.Wants(obs.MsgRef{Sender: int64(s), Seq: seq}) {
				gone = append(gone, k)
			}
		}
		t.evictedTo[s] = upto
	}
	if evicted > 0 {
		t.evicted.Add(uint64(evicted))
		t.setGauges()
	}
	if len(gone) > 0 {
		at := t.traceNow()
		ctx := "frontier=" + min.String()
		for _, k := range gone {
			t.trace.Stabilize(at, t.traceNode, obs.MsgRef{Sender: int64(k.Sender), Seq: k.Seq}, ctx)
		}
	}
	return evicted
}

// Stable reports whether message k is known delivered everywhere.
func (t *Tracker) Stable(k Key) bool { return t.matrix.Stable(k.Sender, k.Seq) }

// MinClock returns the current stability frontier.
func (t *Tracker) MinClock() vclock.VC { return t.matrix.MinClock() }

// Occupancy returns the current number of messages buffered in memory.
func (t *Tracker) Occupancy() int { return t.bufLen }

// OccupancyBytes returns the bytes currently buffered in memory.
func (t *Tracker) OccupancyBytes() int { return t.memBytes }

// Unstable returns the total unstable messages this member still
// accounts for, in memory or spilled.
func (t *Tracker) Unstable() int { return t.bufLen + t.spilledLen }

// PerSender returns how many of sender p's messages are currently
// unstable here (memory + spilled) — the sender-side admission
// window's accounting when p is the tracker's own rank.
func (t *Tracker) PerSender(p vclock.ProcessID) int {
	if int(p) >= len(t.bufQ) {
		return 0
	}
	return t.bufQ[p].Len()
}

// PerSenderBytes returns the byte analogue of PerSender.
func (t *Tracker) PerSenderBytes(p vclock.ProcessID) int {
	if int(p) >= len(t.perBytes) {
		return 0
	}
	return t.perBytes[p]
}

// HighWater returns the maximum in-memory occupancy ever observed.
func (t *Tracker) HighWater() int64 { return t.occupancy.Max() }

// BytesHighWater returns the maximum in-memory byte occupancy ever
// observed.
func (t *Tracker) BytesHighWater() int64 { return t.bytes.Max() }

// Evicted returns the total number of messages evicted as stable.
func (t *Tracker) Evicted() uint64 { return t.evicted.Value() }

// Buffered returns the total number of messages ever buffered.
func (t *Tracker) Buffered() uint64 { return t.buffered.Value() }

// Spilled returns the total number of messages pushed to the spill
// store at admission.
func (t *Tracker) Spilled() uint64 { return t.spilled.Value() }

// Overflowing reports whether the in-memory buffer currently exceeds
// its budget — the measurement the bounded-memory oracle and the
// no-enforcement control arm of E19 read.
func (t *Tracker) Overflowing() bool {
	return t.budget.Exceeded(t.bufLen, t.memBytes)
}

// Laggard identifies the member most responsible for holding back the
// stability frontier: the rank (excluding exclude) whose matrix row
// trails the column-wise best-known frontier by the largest total. The
// boolean is false when no row lags — nothing is unstable, or only the
// excluded rank is behind. This is the Suspect policy's excision
// census: under a budget stall it names the member whose ack progress,
// if excised, frees the most buffered state. waitsFor is the first
// message the laggard has not acknowledged, from the sender column it
// trails by the most: the message whose stability it is holding back.
func (t *Tracker) Laggard(exclude vclock.ProcessID) (lag vclock.ProcessID, waitsFor Key, ok bool) {
	top := make([]uint64, t.n)
	for p := 0; p < t.n; p++ {
		row := t.matrix.Row(vclock.ProcessID(p))
		for s, v := range row {
			if v > top[s] {
				top[s] = v
			}
		}
	}
	var bestLag uint64
	for p := 0; p < t.n; p++ {
		rank := vclock.ProcessID(p)
		if rank == exclude {
			continue
		}
		row := t.matrix.Row(rank)
		var behind, worst uint64
		var col int
		for s, v := range row {
			behind += top[s] - v
			if top[s]-v > worst {
				worst, col = top[s]-v, s
			}
		}
		if behind > 0 && (!ok || behind > bestLag) {
			bestLag, ok = behind, true
			lag = rank
			waitsFor = Key{Sender: vclock.ProcessID(col), Seq: row[col] + 1}
		}
	}
	return lag, waitsFor, ok
}

// Keys returns the identities of all currently buffered messages
// (memory and spill) in (sender, seq) order. Used by the view-change
// flush, which must redistribute unstable messages before installing a
// new view.
func (t *Tracker) Keys() []Key {
	out := make([]Key, 0, t.Unstable())
	for s := range t.bufQ {
		t.bufQ[s].Ascend(func(seq uint64, _ entry) bool {
			out = append(out, Key{Sender: vclock.ProcessID(s), Seq: seq})
			return true
		})
	}
	return out
}

// Resize rebuilds the tracker for a new group size at a view change,
// preserving buffered messages (their keys keep old-epoch ranks only if
// the caller re-buffers; the group layer handles re-mapping). The
// matrix restarts from zero because delivered counts reset per epoch.
// Occupancy gauges reset with it, and old-epoch spilled entries are
// dropped from the store (the new epoch re-buffers what survived).
func (t *Tracker) Resize(n int) {
	for s := range t.bufQ {
		t.bufQ[s].Ascend(func(seq uint64, e entry) bool {
			if e.spilled {
				t.spill.Drop(Key{Sender: vclock.ProcessID(s), Seq: seq}.spillKey())
			}
			return true
		})
	}
	t.n = n
	t.matrix = vclock.NewMatrix(n)
	t.bufQ = make([]seqwin.Window[entry], n)
	t.bufLen, t.spilledLen = 0, 0
	t.evictedTo = make([]uint64, n)
	t.memBytes = 0
	t.perBytes = make([]int, n)
	t.setGauges()
}
