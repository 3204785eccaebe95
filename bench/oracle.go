package main

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Every cast's payload starts with this header; the rest is seeded
// filler. The header is the oracle's only input: nothing about a cast
// is remembered outside the bytes the system under test carries.
//
//	[0:8]   cast   global cast index, unique per run
//	[8:16]  due    instant the cast was due, ns on the run clock
//	[16:18] writer index of the casting writer
//	[18:19] phase  which phase issued it
//	[19:20] window which measurement window of that phase it is due in
//	[20:24] wseq   the writer's own cast count, 1-based
//	[24:..] deps   per writer, how many of its casts the caster had
//	               delivered when it cast (stamped at cast time)
const (
	offCast   = 0
	offDue    = 8
	offWriter = 16
	offPhase  = 18
	offWindow = 19
	offWseq   = 20
	offDeps   = 24
)

// maxWriters bounds the dependency vector so the header fits the
// smallest (64 B) payload.
const maxWriters = 4

const headerLen = offDeps + 4*maxWriters

type castHeader struct {
	cast   uint64
	due    int64
	writer int
	phase  phase
	window int
	wseq   uint32
}

func putHeader(p []byte, h castHeader) {
	binary.LittleEndian.PutUint64(p[offCast:], h.cast)
	binary.LittleEndian.PutUint64(p[offDue:], uint64(h.due))
	binary.LittleEndian.PutUint16(p[offWriter:], uint16(h.writer))
	p[offPhase] = byte(h.phase)
	p[offWindow] = byte(h.window)
	binary.LittleEndian.PutUint32(p[offWseq:], h.wseq)
}

func readHeader(p []byte) castHeader {
	return castHeader{
		cast:   binary.LittleEndian.Uint64(p[offCast:]),
		due:    int64(binary.LittleEndian.Uint64(p[offDue:])),
		writer: int(binary.LittleEndian.Uint16(p[offWriter:])),
		phase:  phase(p[offPhase]),
		window: int(p[offWindow]),
		wseq:   binary.LittleEndian.Uint32(p[offWseq:]),
	}
}

// memberOracle checks one member's delivery sequence as it happens. It
// lives on that member's dispatch context and takes no locks.
type memberOracle struct {
	writers int
	// next[w] is how many of writer w's casts this member has
	// delivered; with FIFO intact the next one carries wseq next[w]+1.
	next [maxWriters]uint32
	// digest folds the delivery sequence in order; members of a totally
	// ordered group must end with equal digests.
	digest uint64

	malformed  int64 // payload too short or writer out of range
	duplicates int64 // wseq already delivered
	gaps       int64 // wseq skipped ahead: a reordered or dropped cast
	causal     int64 // caster had delivered something this member has not
}

// stamp writes the caster's delivered counts into a payload about to be
// cast: the happens-before edge the causal check holds receivers to.
func (o *memberOracle) stamp(p []byte) {
	for w := 0; w < o.writers; w++ {
		binary.LittleEndian.PutUint32(p[offDeps+4*w:], o.next[w])
	}
}

// observe checks one delivery and reports its header; ok is false when
// the payload is not one of ours.
func (o *memberOracle) observe(p []byte) (h castHeader, ok bool) {
	if len(p) < headerLen {
		o.malformed++
		return h, false
	}
	h = readHeader(p)
	if h.writer >= o.writers {
		o.malformed++
		return h, false
	}
	o.digest = (o.digest ^ (h.cast + 1)) * 0x100000001b3
	for w := 0; w < o.writers; w++ {
		if binary.LittleEndian.Uint32(p[offDeps+4*w:]) > o.next[w] {
			o.causal++
			break
		}
	}
	switch have := o.next[h.writer]; {
	case h.wseq <= have:
		o.duplicates++
	case h.wseq > have+1:
		o.gaps++
		o.next[h.writer] = h.wseq
	default:
		o.next[h.writer] = h.wseq
	}
	return h, true
}

func (o *memberOracle) violations() int64 {
	return o.malformed + o.duplicates + o.gaps + o.causal
}

// verdict is the oracle's end-of-run summary over all members.
type verdict struct {
	violations int64    // in-flight violations summed over members
	missing    int64    // deliveries that never happened (casts x members)
	diverged   bool     // total order only: digests differ
	notes      []string // one line per kind of problem found
}

// judge closes the books: cast[w] is how many casts writer w made,
// total reports whether the group promises one delivery order.
func judge(members []*memberOracle, cast []uint32, total bool) verdict {
	var v verdict
	for i, o := range members {
		if n := o.violations(); n > 0 {
			v.violations += n
			v.notes = append(v.notes, fmt.Sprintf("member %d: %d duplicate, %d out-of-sequence, %d causal, %d malformed",
				i, o.duplicates, o.gaps, o.causal, o.malformed))
		}
		for w, want := range cast {
			if o.next[w] < want {
				v.missing += int64(want - o.next[w])
			}
		}
	}
	if v.missing > 0 {
		v.notes = append(v.notes, fmt.Sprintf("%d deliveries missing at the drain deadline", v.missing))
	}
	if total && v.missing == 0 {
		for i, o := range members[1:] {
			if o.digest != members[0].digest {
				v.diverged = true
				v.notes = append(v.notes, fmt.Sprintf("member %d's delivery order differs from member 0's", i+1))
			}
		}
	}
	return v
}

func (v verdict) ok() bool { return v.violations == 0 && v.missing == 0 && !v.diverged }

// completion tracks, per cast, how many members still owe a delivery:
// a preallocated ring of atomics indexed by cast number, so the hot
// path is one atomic decrement and the tracker never allocates.
type completion struct {
	slots   []atomic.Int32
	mask    uint64
	members int32
	// overrun counts casts whose slot was reused before they completed:
	// the previous occupant was more than len(slots) casts behind.
	overrun atomic.Int64
}

func newCompletion(members, ringBits int) *completion {
	return &completion{slots: make([]atomic.Int32, 1<<ringBits), mask: 1<<ringBits - 1, members: int32(members)}
}

// arm opens cast k; called by the driver before the cast is issued.
func (c *completion) arm(k uint64) {
	if c.slots[k&c.mask].Swap(c.members) > 0 {
		c.overrun.Add(1)
	}
}

// delivered records one member's delivery of cast k and reports
// whether that was the last one owed.
func (c *completion) delivered(k uint64) bool {
	return c.slots[k&c.mask].Add(-1) == 0
}
