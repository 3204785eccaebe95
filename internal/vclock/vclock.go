// Package vclock implements the logical-clock machinery underlying
// causally and totally ordered communication support (CATOCS):
// Lamport scalar clocks, vector clocks, and matrix clocks.
//
// The paper (Cheriton & Skeen, SOSP '93) critiques communication-level
// ordering built on exactly these structures: vector clocks drive the
// CBCAST-style causal delay queue, Lamport clocks drive the
// agreement-mode ABCAST total order, and matrix clocks drive stability
// tracking (when may a buffered message be discarded?). The same
// package also serves the paper's preferred alternative — state-level
// logical clocks (version numbers) — via the Version type.
//
// All types in this package are values or small structs owned by a
// single goroutine; callers that share them across goroutines must
// synchronize externally. This mirrors how protocol stacks embed
// clocks inside per-connection state machines.
package vclock

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Ordering is the outcome of comparing two events under a partial order.
type Ordering int

const (
	// Before means the receiver happens-before the argument.
	Before Ordering = iota
	// After means the argument happens-before the receiver.
	After
	// Equal means the two clocks are identical.
	Equal
	// Concurrent means neither happens-before the other.
	Concurrent
)

// String returns the conventional name of the ordering.
func (o Ordering) String() string {
	switch o {
	case Before:
		return "before"
	case After:
		return "after"
	case Equal:
		return "equal"
	case Concurrent:
		return "concurrent"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}

// ProcessID identifies a participant in a process group. IDs are dense
// small integers assigned by the group layer; using an integer rather
// than a string keeps vector clocks compact, which matters because
// CATOCS attaches a clock to every message (one of the per-message
// overheads §3.4 of the paper calls out).
type ProcessID int

// Lamport is a scalar logical clock (Lamport 1978). It provides a total
// order consistent with happens-before when combined with a process-id
// tiebreak, which is exactly the ordering rule used by the
// moving-sequencer/agreement total-order multicast and by the paper's
// optimistic-transaction commit ordering (§4.3).
type Lamport struct {
	time uint64
}

// Now returns the current scalar time.
func (l *Lamport) Now() uint64 { return l.time }

// Tick advances the clock for a local event and returns the new time.
func (l *Lamport) Tick() uint64 {
	l.time++
	return l.time
}

// Observe merges an incoming timestamp: the clock jumps to
// max(local, remote)+1, the receive rule of Lamport's algorithm.
func (l *Lamport) Observe(remote uint64) uint64 {
	if remote > l.time {
		l.time = remote
	}
	l.time++
	return l.time
}

// Stamp is a totally ordered (time, process) pair. Two stamps are never
// equal unless both fields match, so sorting by Stamp yields the global
// total order used by agreement-mode ABCAST and by optimistic commit.
type Stamp struct {
	Time uint64
	Proc ProcessID
}

// Less reports whether s orders strictly before t, breaking time ties
// by process id.
func (s Stamp) Less(t Stamp) bool {
	if s.Time != t.Time {
		return s.Time < t.Time
	}
	return s.Proc < t.Proc
}

// String renders the stamp as "time@proc".
func (s Stamp) String() string { return fmt.Sprintf("%d@%d", s.Time, s.Proc) }

// MsgID names a multicast uniquely: the seq'th message from a sender.
// The ordering layers (internal/multicast, internal/mgcast,
// internal/causalgraph) alias it; whether Sender is a group rank or a
// universe-wide node index is the aliasing layer's convention.
type MsgID struct {
	Sender ProcessID
	Seq    uint64
}

// String renders the id as "sender:seq".
func (id MsgID) String() string { return fmt.Sprintf("%d:%d", id.Sender, id.Seq) }

// Less orders ids by sender, then sequence number; scans over maps of
// ids sort by it so simulated runs stay deterministic.
func (id MsgID) Less(other MsgID) bool {
	if id.Sender != other.Sender {
		return id.Sender < other.Sender
	}
	return id.Seq < other.Seq
}

// VC is a vector clock over a fixed-size process group. The zero value
// is unusable; construct with New. Indexing is by dense ProcessID in
// [0, len).
//
// The representation is a plain slice: groups in CATOCS systems are
// fixed at view-change boundaries, so resizing happens only through
// Resize during a view change, never on the message path.
type VC []uint64

// New returns a zeroed vector clock for a group of n processes.
func New(n int) VC {
	return make(VC, n)
}

// Len returns the number of group members the clock covers.
func (v VC) Len() int { return len(v) }

// Clone returns an independent copy.
func (v VC) Clone() VC {
	c := make(VC, len(v))
	copy(c, v)
	return c
}

// Tick increments the component of process p and returns the clock for
// chaining. Panics if p is out of range — out-of-range process ids
// indicate a view-management bug, not a runtime condition.
func (v VC) Tick(p ProcessID) VC {
	v[p]++
	return v
}

// Get returns the component for process p.
func (v VC) Get(p ProcessID) uint64 { return v[p] }

// Set assigns component p. Used when reconstructing clocks from the
// wire; normal protocol code should use Tick and Merge.
func (v VC) Set(p ProcessID, t uint64) { v[p] = t }

// Merge folds other into v component-wise (max), the standard receive
// rule. The two clocks must be the same length.
func (v VC) Merge(other VC) VC {
	if len(v) != len(other) {
		panic(fmt.Sprintf("vclock: merge length mismatch %d != %d", len(v), len(other)))
	}
	for i, t := range other {
		if t > v[i] {
			v[i] = t
		}
	}
	return v
}

// Compare determines the causal relationship between v and other.
func (v VC) Compare(other VC) Ordering {
	if len(v) != len(other) {
		panic(fmt.Sprintf("vclock: compare length mismatch %d != %d", len(v), len(other)))
	}
	var less, greater bool
	for i := range v {
		switch {
		case v[i] < other[i]:
			less = true
		case v[i] > other[i]:
			greater = true
		}
		if less && greater {
			return Concurrent
		}
	}
	switch {
	case less:
		return Before
	case greater:
		return After
	default:
		return Equal
	}
}

// HappensBefore reports whether v strictly happens-before other.
func (v VC) HappensBefore(other VC) bool { return v.Compare(other) == Before }

// Concurrent reports whether neither clock happens-before the other.
func (v VC) ConcurrentWith(other VC) bool { return v.Compare(other) == Concurrent }

// Equal reports component-wise equality.
func (v VC) Equal(other VC) bool { return v.Compare(other) == Equal }

// Deliverable implements the CBCAST delivery test: a message stamped
// msg from sender may be delivered at a process whose delivered-clock
// is v when
//
//	msg[sender] == v[sender]+1        (next message from that sender)
//	msg[k]     <= v[k]  for k!=sender (all causal predecessors delivered)
//
// This is the rule whose blocking behaviour produces the
// false-causality delays of §3.4: delivery waits on *potential*
// causality whether or not the application semantics required it.
func (v VC) Deliverable(msg VC, sender ProcessID) bool {
	if len(v) != len(msg) {
		panic(fmt.Sprintf("vclock: deliverable length mismatch %d != %d", len(v), len(msg)))
	}
	// The sender test is hoisted so the scan body is a single
	// rarely-taken comparison; at n=256 the per-element sender branch
	// dominated the old loop.
	if msg[sender] != v[sender]+1 {
		return false
	}
	for i, t := range msg {
		if t > v[i] && ProcessID(i) != sender {
			return false
		}
	}
	return true
}

// DeltaEntry is one changed component of a delta-encoded vector clock:
// process Idx moved to value Val since the sender's previous message.
// A clock travels on the wire as the list of entries that changed,
// which is O(concurrent writers) instead of O(group size) — the
// compression that keeps CBCAST headers from growing with N.
type DeltaEntry struct {
	Idx int32
	Val uint64
}

// DiffFrom appends to dst the entries of v that differ from prev and
// returns the extended slice. prev and v must be the same length.
// Passing a reusable dst[:0] keeps the encode path allocation-free.
func (v VC) DiffFrom(prev VC, dst []DeltaEntry) []DeltaEntry {
	if len(v) != len(prev) {
		panic(fmt.Sprintf("vclock: diff length mismatch %d != %d", len(v), len(prev)))
	}
	for i, t := range v {
		if t != prev[i] {
			dst = append(dst, DeltaEntry{Idx: int32(i), Val: t})
		}
	}
	return dst
}

// ApplyDelta sets the listed components on v in place, reconstructing
// a full clock from a delta against the previous clock of the same
// sender. It reports false (leaving v partially updated) when an index
// is out of range — wire-decoded deltas are untrusted.
func (v VC) ApplyDelta(delta []DeltaEntry) bool {
	for _, e := range delta {
		if e.Idx < 0 || int(e.Idx) >= len(v) {
			return false
		}
		v[e.Idx] = e.Val
	}
	return true
}

// DeliverableDelta is the sparse CBCAST delivery test for a
// delta-encoded message: the seq'th message from sender, whose clock
// differs from the sender's previous message only in the given delta
// entries, is deliverable at delivered-clock v when the sender's next
// sequence matches and every changed predecessor count is already
// covered.
//
// Soundness relies on the caller checking v[sender]+1 == seq first
// (which this test does): then the receiver has delivered the sender's
// previous message, at which point the CBCAST delivery rule guaranteed
// v >= prevVC pointwise — so every *unchanged* component passes
// automatically and only the delta entries need inspection. The check
// is O(len(delta)), not O(N).
func (v VC) DeliverableDelta(sender ProcessID, seq uint64, delta []DeltaEntry) bool {
	if int(sender) < 0 || int(sender) >= len(v) || v[sender]+1 != seq {
		return false
	}
	for _, e := range delta {
		if e.Idx < 0 || int(e.Idx) >= len(v) {
			return false // wire-decoded deltas are untrusted
		}
		if ProcessID(e.Idx) == sender {
			continue
		}
		if e.Val > v[e.Idx] {
			return false
		}
	}
	return true
}

// Missing returns, for an undeliverable message stamped msg from
// sender, the set of (process, sequence) pairs the receiver with
// delivered-clock v is still waiting on. Diagnostics only: atomic
// delivery's NACK path reads the same set off its known frontier
// (multicast's eachMissing) and keeps this as its test oracle.
func (v VC) Missing(msg VC, sender ProcessID) []Stamp {
	var out []Stamp
	for i := range msg {
		p := ProcessID(i)
		want := msg[i]
		if p == sender {
			// Everything from sender up to and including msg[i] must arrive.
			for s := v[i] + 1; s <= want; s++ {
				if s != want { // the message itself is present
					out = append(out, Stamp{Time: s, Proc: p})
				}
			}
			if want <= v[i] {
				// Duplicate or already delivered; nothing missing from sender.
				continue
			}
		} else {
			for s := v[i] + 1; s <= want; s++ {
				out = append(out, Stamp{Time: s, Proc: p})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Less(out[b]) })
	return out
}

// Resize returns a copy of v adjusted to n components, truncating or
// zero-extending. Called only at view changes, where the group layer
// re-maps process ids; message-path code never resizes.
func (v VC) Resize(n int) VC {
	c := make(VC, n)
	copy(c, v)
	return c
}

// Sum returns the total number of events the clock has observed, a
// cheap monotone measure used by metrics.
func (v VC) Sum() uint64 {
	var s uint64
	for _, t := range v {
		s += t
	}
	return s
}

// String renders the clock as "[t0 t1 ...]".
func (v VC) String() string {
	// strconv, not fmt: this renders on the sampled-tracing path, where
	// per-entry fmt machinery dominated the sampled-message cost. The
	// capacity covers 11-digit entries so long-running clocks don't
	// regrow the buffer mid-render.
	buf := make([]byte, 0, 2+12*len(v))
	buf = append(buf, '[')
	for i, t := range v {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = strconv.AppendUint(buf, t, 10)
	}
	buf = append(buf, ']')
	return string(buf)
}

// Matrix is a matrix clock: row i is process i's vector clock as last
// reported to us. Its column-wise minimum bounds what every process has
// delivered, which is the stability test — a message with send-stamp s
// from p is stable once min over rows of row[p] >= s[p]. Matrix clocks
// are the mechanism behind the unstable-message buffers whose growth §5
// argues is quadratic system-wide.
type Matrix struct {
	n    int
	rows []VC
	// min caches the column-wise minimum across rows. Row entries only
	// ever rise (Update merges), so the cached minimum is maintained
	// incrementally: a column is rescanned only when the entry that
	// held its minimum advances. Stable() becomes O(1) and Update
	// amortizes to O(changed columns), which is what keeps stability
	// bookkeeping off the per-ack hot path.
	min VC
}

// NewMatrix returns a matrix clock for n processes with all entries 0.
func NewMatrix(n int) *Matrix {
	m := &Matrix{n: n, rows: make([]VC, n), min: New(n)}
	for i := range m.rows {
		m.rows[i] = New(n)
	}
	return m
}

// N returns the group size.
func (m *Matrix) N() int { return m.n }

// Row returns process p's last-known vector clock. The returned slice
// aliases internal state; callers must not mutate it.
func (m *Matrix) Row(p ProcessID) VC { return m.rows[p] }

// Update merges a freshly learned vector clock for process p (e.g. from
// a piggybacked ack) into row p, keeping the cached column minimum
// current.
func (m *Matrix) Update(p ProcessID, v VC) {
	if len(v) != m.n {
		panic(fmt.Sprintf("vclock: matrix update length mismatch %d != %d", len(v), m.n))
	}
	row := m.rows[p]
	for i, t := range v {
		if t <= row[i] {
			continue
		}
		old := row[i]
		row[i] = t
		if old == m.min[i] {
			m.recomputeMin(i)
		}
	}
}

// recomputeMin rescans column i for its new minimum.
func (m *Matrix) recomputeMin(i int) {
	min := m.rows[0][i]
	for _, r := range m.rows[1:] {
		if r[i] < min {
			min = r[i]
		}
	}
	m.min[i] = min
}

// MinClock returns a copy of the column-wise minimum across all rows:
// the vector of events known to be delivered everywhere. Messages at or
// below this frontier are stable and may leave the retransmission
// buffer.
func (m *Matrix) MinClock() VC {
	return m.min.Clone()
}

// Min returns the cached column-wise minimum without copying. The
// returned slice aliases internal state; callers must not mutate it and
// must not hold it across Update calls.
func (m *Matrix) Min() VC { return m.min }

// Stable reports whether the seq'th message from sender is known to be
// delivered at every process.
func (m *Matrix) Stable(sender ProcessID, seq uint64) bool {
	return m.min[sender] >= seq
}

// String renders the matrix row-major.
func (m *Matrix) String() string {
	var b strings.Builder
	for i, r := range m.rows {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "p%d: %s", i, r)
	}
	return b.String()
}

// Version is a state-level logical clock: a (object id, version number)
// pair recorded on application state rather than on messages. This is
// the paper's prescriptive-ordering alternative — "clock ticks on the
// state, the object versions" (§6) — used by the trading dependency
// fields (§4.1), the SFC lot-status records (§3 limitation 1), and the
// order-preserving data cache.
type Version struct {
	Object string
	Seq    uint64
}

// Next returns the successor version of the same object.
func (v Version) Next() Version { return Version{Object: v.Object, Seq: v.Seq + 1} }

// Covers reports whether v is the same object at an equal or later
// version than w — the test a recipient applies to decide whether a
// message's view of an object is current.
func (v Version) Covers(w Version) bool {
	return v.Object == w.Object && v.Seq >= w.Seq
}

// String renders the version as "object#seq".
func (v Version) String() string { return fmt.Sprintf("%s#%d", v.Object, v.Seq) }
