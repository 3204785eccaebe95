package main

import "testing"

// feed plays a delivery sequence, given as (writer, wseq) pairs, into a
// fresh two-writer oracle. Each payload's dependency vector is what an
// in-order receiver of the sequence so far would have stamped, so only
// the fault under test can trip the causal check.
func feed(seq [][2]int) *memberOracle {
	o := &memberOracle{writers: 2}
	for i, d := range seq {
		p := make([]byte, 64)
		putHeader(p, castHeader{cast: uint64(i), writer: d[0], phase: phaseLight, wseq: uint32(d[1])})
		o.observe(p)
	}
	return o
}

func TestOracleFlagsBadSequences(t *testing.T) {
	sent := []uint32{3, 2} // writer 0 cast 3 times, writer 1 twice
	inOrder := [][2]int{{0, 1}, {1, 1}, {0, 2}, {1, 2}, {0, 3}}

	if v := judge([]*memberOracle{feed(inOrder)}, sent, false); !v.ok() {
		t.Fatalf("clean sequence flagged: %+v", v)
	}

	reordered := [][2]int{{0, 1}, {1, 1}, {0, 3}, {0, 2}, {1, 2}}
	o := feed(reordered)
	if o.gaps == 0 || o.duplicates == 0 {
		t.Errorf("reordered sequence: want the skip ahead and the late arrival flagged, got gaps=%d duplicates=%d", o.gaps, o.duplicates)
	}
	if v := judge([]*memberOracle{o}, sent, false); v.ok() || v.violations == 0 {
		t.Errorf("reordered sequence passed: %+v", v)
	}

	duplicated := [][2]int{{0, 1}, {1, 1}, {0, 2}, {0, 2}, {1, 2}, {0, 3}}
	o = feed(duplicated)
	if o.duplicates != 1 {
		t.Errorf("duplicated sequence: duplicates=%d, want 1", o.duplicates)
	}
	if v := judge([]*memberOracle{o}, sent, false); v.ok() {
		t.Errorf("duplicated sequence passed: %+v", v)
	}

	dropped := [][2]int{{0, 1}, {1, 1}, {0, 2}, {1, 2}} // writer 0's third cast never arrives
	if v := judge([]*memberOracle{feed(dropped)}, sent, false); v.ok() || v.missing != 1 {
		t.Errorf("dropped sequence: missing=%d ok=%v, want 1 missing", v.missing, v.ok())
	}
}

func TestOracleFlagsCausalViolation(t *testing.T) {
	o := &memberOracle{writers: 2}
	// Writer 1's first cast was made after its caster had delivered
	// writer 0's first; this receiver has not.
	p := make([]byte, 64)
	putHeader(p, castHeader{writer: 1, phase: phaseLight, wseq: 1})
	(&memberOracle{writers: 2, next: [maxWriters]uint32{1, 0}}).stamp(p)
	o.observe(p)
	if o.causal != 1 {
		t.Errorf("delivery ahead of its causal predecessor: causal=%d, want 1", o.causal)
	}
}

func TestOracleFlagsDivergedTotalOrder(t *testing.T) {
	sent := []uint32{1, 1}
	// Same deliveries, opposite order: legal causally (the casts are
	// concurrent), a violation under total order.
	a := &memberOracle{writers: 2}
	b := &memberOracle{writers: 2}
	mk := func(cast uint64, w int) []byte {
		p := make([]byte, 64)
		putHeader(p, castHeader{cast: cast, writer: w, phase: phaseLight, wseq: 1})
		return p
	}
	a.observe(mk(0, 0))
	a.observe(mk(1, 1))
	b.observe(mk(1, 1))
	b.observe(mk(0, 0))
	if v := judge([]*memberOracle{a, b}, sent, false); !v.ok() {
		t.Errorf("concurrent casts in different orders flagged without total order: %+v", v)
	}
	if v := judge([]*memberOracle{a, b}, sent, true); !v.diverged {
		t.Errorf("different delivery orders passed under total order: %+v", v)
	}
}

func TestCompletionRing(t *testing.T) {
	c := newCompletion(3, 2) // 4 slots
	c.arm(0)
	if c.delivered(0) || c.delivered(0) {
		t.Fatal("cast complete before every member delivered it")
	}
	if !c.delivered(0) {
		t.Fatal("third delivery of three did not complete the cast")
	}
	c.arm(1)
	c.arm(5) // same slot as cast 1, which is still open
	if c.overrun.Load() != 1 {
		t.Errorf("overrun=%d after reusing an open slot, want 1", c.overrun.Load())
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.record(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100000
		if got := h.quantile(q); got < want*0.99 || got > want*1.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", q, got, want)
		}
	}
	if h.beyond(0.99) != 1000 {
		t.Errorf("beyond(0.99) = %d, want 1000", h.beyond(0.99))
	}
	var a, b hist
	a.record(10)
	b.record(1000)
	a.merge(&b)
	if a.n != 2 || a.max != 1000 || a.sum != 1010 {
		t.Errorf("merge: n=%d max=%d sum=%d", a.n, a.max, a.sum)
	}
}
