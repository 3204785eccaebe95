package seqwin

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// model drives a Window and a map with the same operations and compares
// them after every step.
type model struct {
	t    testing.TB
	w    Window[uint64]
	m    map[uint64]uint64
	grew bool // the ring grew past a wrap at least once
}

func newModel(t testing.TB) *model { return &model{t: t, m: make(map[uint64]uint64)} }

func (md *model) put(k, v uint64) {
	wrapped := md.w.n > 0 && md.w.lo&uint64(len(md.w.ring)-1) > md.w.hi&uint64(len(md.w.ring)-1)
	before := len(md.w.ring)
	md.w.Put(k, v)
	md.m[k] = v
	md.grew = md.grew || wrapped && len(md.w.ring) > before
	md.check()
}

func (md *model) del(k uint64) {
	v, ok := md.w.Delete(k)
	mv, mok := md.m[k]
	if ok != mok || v != mv {
		md.t.Fatalf("Delete(%d) = %d, %v; map had %d, %v", k, v, ok, mv, mok)
	}
	delete(md.m, k)
	md.check()
}

func (md *model) get(k uint64) {
	v, ok := md.w.Get(k)
	mv, mok := md.m[k]
	if ok != mok || v != mv || md.w.Has(k) != mok {
		md.t.Fatalf("Get(%d) = %d, %v; map has %d, %v", k, v, ok, mv, mok)
	}
}

// check compares length, minimum, ordered contents, the ring's shape
// and that every slot outside the live span is zero.
func (md *model) check() {
	t, w := md.t, &md.w
	if w.Len() != len(md.m) {
		t.Fatalf("Len = %d, map holds %d", w.Len(), len(md.m))
	}
	keys := make([]uint64, 0, len(md.m))
	for k := range md.m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if lo, ok := w.Min(); ok != (len(keys) > 0) || ok && lo != keys[0] {
		t.Fatalf("Min = %d, %v; map keys %v", lo, ok, keys)
	}
	var got []uint64
	w.Ascend(func(k, v uint64) bool {
		if v != md.m[k] {
			t.Fatalf("Ascend yields %d -> %d, map has %d", k, v, md.m[k])
		}
		got = append(got, k)
		return true
	})
	if !slices.Equal(got, keys) {
		t.Fatalf("Ascend = %v, map keys %v", got, keys)
	}
	if n := len(w.ring); n&(n-1) != 0 || n > 0 && n < minRing {
		t.Fatalf("ring of %d slots", n)
	}
	if len(keys) > 0 {
		if span := keys[len(keys)-1] - keys[0] + 1; span > uint64(len(w.ring)) ||
			len(w.ring) > keepRing && span*4 < uint64(len(w.ring)) {
			t.Fatalf("span %d in a ring of %d", span, len(w.ring))
		}
	} else if len(w.ring) > keepRing {
		t.Fatalf("an empty window keeps a ring of %d", len(w.ring))
	}
	held := 0
	for _, s := range w.ring {
		if s.ok {
			held++
		} else if s.v != 0 {
			t.Fatal("a free slot keeps a value")
		}
	}
	if held != len(keys) {
		t.Fatalf("%d slots marked held for %d keys", held, len(keys))
	}
}

// TestWindowMatchesMap drives a window and a map through a random mix
// of Put, Delete and Get around a base that slides forward, with
// inserts below the smallest key, bursts that grow the ring past a
// wrap, drains that shrink and empty it, and reuse afterwards.
func TestWindowMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	md := newModel(t)
	base := uint64(1 << 40)
	emptied, shrank, below := 0, 0, 0
	for round := 0; round < 40; round++ {
		width := uint64(4)
		if round%5 == 4 {
			width = 300 // a burst: the ring grows well past keepRing
		}
		for i := 0; i < 400; i++ {
			k := base + uint64(rng.Int63n(int64(width)))
			switch op := rng.Intn(10); {
			case op < 5:
				if lo, ok := md.w.Min(); ok && k < lo {
					below++
				}
				md.put(k, rng.Uint64())
			case op < 8:
				md.del(k)
			default:
				md.get(k)
				md.get(k + width) // past the span
				md.get(base - 1)  // below it
			}
			if rng.Intn(8) == 0 {
				base++ // the window slides
			}
		}
		// Drain from the front, as a delivery frontier does: to empty on
		// even rounds, to the three newest keys on odd ones.
		peak, keep := len(md.w.ring), 3*(round%2)
		for md.w.Len() > keep {
			lo, _ := md.w.Min()
			md.del(lo)
		}
		if len(md.w.ring) < peak {
			shrank++
		}
		if md.w.Len() == 0 {
			emptied++
		}
	}
	if emptied == 0 || shrank == 0 || below == 0 || !md.grew {
		t.Fatalf("mix missed a shape: emptied %d, shrank %d, inserts below lo %d, grew past a wrap %v",
			emptied, shrank, below, md.grew)
	}
}

// FuzzWindow is TestWindowMatchesMap's model driven by fuzz input:
// each three-byte step is an operation and a key offset from a base
// that the input also slides.
func FuzzWindow(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 9, 0, 1, 1, 0, 0, 200, 0, 1, 9, 0})
	f.Add(binary.LittleEndian.AppendUint64(nil, 0x0102030405060708))
	f.Fuzz(func(t *testing.T, in []byte) {
		md := newModel(t)
		base := uint64(1 << 62)
		for len(in) >= 3 {
			op, off := in[0], uint64(binary.LittleEndian.Uint16(in[1:3]))%512
			in = in[3:]
			switch k := base + off; op % 4 {
			case 0:
				md.put(k, uint64(op))
			case 1:
				md.del(k)
			case 2:
				md.get(k)
			case 3:
				base += off % 64
			}
		}
		for md.w.Len() > 0 {
			lo, _ := md.w.Min()
			md.del(lo)
		}
	})
}

// TestWindowSteadyStateAllocs pins that a window sliding at a fixed
// span — put the next key, delete the oldest — allocates nothing once
// its ring is sized, and neither does emptying and refilling it.
func TestWindowSteadyStateAllocs(t *testing.T) {
	var w Window[*int]
	v := new(int)
	next := uint64(1)
	for ; next <= 40; next++ {
		w.Put(next, v)
	}
	slide := testing.AllocsPerRun(1000, func() {
		w.Put(next, v)
		w.Delete(next - 40)
		next++
	})
	refill := testing.AllocsPerRun(100, func() {
		for w.Len() > 0 {
			lo, _ := w.Min()
			w.Delete(lo)
		}
		for i := uint64(0); i < 40; i++ {
			w.Put(next+i, v)
		}
		next += 40
	})
	if slide != 0 || refill != 0 {
		t.Fatalf("steady state allocates: %v per slide, %v per refill", slide, refill)
	}
}

// TestWindowReleasesBurst pins that a window that held a burst lets the
// burst's ring go once it drains, and drops no value it still holds.
func TestWindowReleasesBurst(t *testing.T) {
	var w Window[int]
	for k := uint64(1); k <= 1<<14; k++ {
		w.Put(k, int(k))
	}
	for k := uint64(1); k < 1<<14-3; k++ {
		w.Delete(k)
	}
	if len(w.ring) > keepRing {
		t.Fatalf("4 keys left in a ring of %d", len(w.ring))
	}
	for k := uint64(1<<14 - 3); k <= 1<<14; k++ {
		if v, ok := w.Get(k); !ok || v != int(k) {
			t.Fatalf("Get(%d) = %d, %v after the shrink", k, v, ok)
		}
	}
}
