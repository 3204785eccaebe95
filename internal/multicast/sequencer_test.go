package multicast

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"catocs/internal/sim"
	"catocs/internal/transport"
	"catocs/internal/vclock"
)

// stabilize makes every id of each sender up to upTo[s] stable at m:
// all ranks acknowledge that clock.
func stabilize(m *Member, upTo vclock.VC) {
	for p := range m.nodes {
		m.stab.ObserveAck(vclock.ProcessID(p), upTo)
	}
}

// TestAssignedGlobalOf pins the sequencer's id -> position index
// against the assignment log it inverts, on the shapes it has to
// survive: TotalSeq assigning a retransmitted early cast after its
// successors, a sequence space resumed far from 1, ids never assigned
// or from no member, a prune of the stable front, steps beyond
// maxOrderWindow in either direction, and a view change.
func TestAssignedGlobalOf(t *testing.T) {
	nodes := []transport.NodeID{0, 1, 2}
	m := NewMember(nullNet{}, nodes, 0, Config{Group: "a", Ordering: TotalSeq, Atomic: true}, func(Delivered) {})
	s := m.seq
	assigned := []MsgID{
		{Sender: 1, Seq: 5_000_005}, {Sender: 1, Seq: 5_000_007}, {Sender: 2, Seq: 3},
		{Sender: 1, Seq: 5_000_002}, {Sender: 2, Seq: 1}, {Sender: 1, Seq: 5_000_006},
	}
	for _, id := range assigned {
		s.assignOrder(id)
	}
	for i, id := range assigned {
		if g, ok := s.assignedGlobalOf(id); !ok || g != uint64(i+1) {
			t.Errorf("assignedGlobalOf(%v) = %d, %v; want %d", id, g, ok, i+1)
		}
		if back := s.assignedLog[uint64(i+1)-s.assignedBase]; back != id {
			t.Errorf("assignedLog holds %v at position %d; want %v", back, i+1, id)
		}
	}
	for _, id := range []MsgID{{Sender: 1, Seq: 5_000_003}, {Sender: 1, Seq: 1}, {Sender: 2, Seq: 2}, {Sender: 2, Seq: 9}, {Sender: 0, Seq: 1}, {Sender: 7, Seq: 1}, {Sender: -1, Seq: 1}} {
		if g, ok := s.assignedGlobalOf(id); ok {
			t.Errorf("assignedGlobalOf(%v) = %d for an id never assigned", id, g)
		}
	}

	// (a) A prune pops exactly the stable front: with sender 1 stable
	// through 5_000_007 and sender 2 through 1, positions 1 and 2 go;
	// position 3, (2,3), is unstable and keeps the stable ids at 4-6
	// behind it in the log and in the index.
	stabilize(m, vclock.VC{0, 5_000_007, 1})
	next := MsgID{Sender: 2, Seq: 4}
	s.assignOrder(next)
	live := append(assigned[2:], next)
	if s.assignedBase != 3 || !slices.Equal(s.assignedLog, live) {
		t.Fatalf("after the prune the log is %v from %d; want %v from 3", s.assignedLog, s.assignedBase, live)
	}
	for i, id := range live {
		if g, ok := s.assignedGlobalOf(id); !ok || g != uint64(i+3) {
			t.Errorf("after the prune assignedGlobalOf(%v) = %d, %v; want %d", id, g, ok, i+3)
		}
	}
	for _, id := range assigned[:2] {
		if g, ok := s.assignedGlobalOf(id); ok {
			t.Errorf("pruned %v still indexed at %d", id, g)
		}
		if !m.orderKnown.Has(id) {
			t.Errorf("pruned %v no longer counts as assigned", id)
		}
	}
	if r := s.assigned[1]; r.base != 5_000_002 || len(r.pos) != 6 {
		t.Errorf("sender 1's run spans %d from %d; want 6 from 5_000_002", len(r.pos), r.base)
	}

	// (b) A step more than maxOrderWindow from a run's base, up or down,
	// stays unindexed, allocates no window-sized slice, and still counts
	// as assigned.
	far := []MsgID{{Sender: 1, Seq: 5_000_002 + maxOrderWindow}, {Sender: 1, Seq: 1}}
	for _, id := range far {
		s.assignOrder(id)
		if g, ok := s.assignedGlobalOf(id); ok {
			t.Errorf("%v, beyond the window, indexed at %d", id, g)
		}
		if !m.orderKnown.Has(id) {
			t.Errorf("%v, beyond the window, does not count as assigned", id)
		}
	}
	if r := s.assigned[1]; r.base != 5_000_002 || len(r.pos) != 6 || cap(r.pos) > 64 {
		t.Errorf("steps beyond the window left sender 1's run at %d from %d (cap %d)", len(r.pos), r.base, cap(r.pos))
	}
	if avg := testing.AllocsPerRun(10, func() { s.index(far[0], 99) }); avg != 0 {
		t.Errorf("indexing a step beyond the window allocates %.0f times", avg)
	}

	m.InstallView(nodes, 0, 1)
	if _, ok := m.seq.assignedGlobalOf(assigned[2]); ok {
		t.Error("an assignment survived a view change")
	}
}

// TestStaleOrderNackAfterPrune delivers an OrderNack that was delayed
// in flight: it asks from position 5 and for an id assigned at 7, but
// positions 1-10 are stable and pruned by now. The sequencer answers
// with the live log from its base only — one run, [11, 21] — and does
// not mistake the pruned id for data it never saw.
func TestStaleOrderNackAfterPrune(t *testing.T) {
	nodes := []transport.NodeID{0, 1, 2}
	rn := &recNet{}
	m := NewMember(rn, nodes, 0, Config{Group: "o", Ordering: TotalSeq, Atomic: true}, func(Delivered) {})
	ids := make([]MsgID, 22) // ids[g] is assigned position g
	for g := 1; g <= 20; g++ {
		ids[g] = MsgID{Sender: 1, Seq: uint64(g)}
		m.seq.assignOrder(ids[g])
	}
	stabilize(m, vclock.VC{0, 10, 0})
	ids[21] = MsgID{Sender: 2, Seq: 1}
	m.seq.assignOrder(ids[21])
	if m.seq.assignedBase != 11 {
		t.Fatalf("log starts at %d after the prune, want 11", m.seq.assignedBase)
	}
	m.Handle(nodes[1], &OrderNack{Group: "o", From: 1, FromGlobal: 5, Want: []MsgID{ids[7]}})
	var firsts []uint64
	for _, s := range rn.sends {
		switch msg := s.msg.(type) {
		case *OrderBatchMsg:
			if !slices.Equal(msg.IDs, ids[msg.FirstGlobal:msg.FirstGlobal+uint64(len(msg.IDs))]) {
				t.Errorf("run from %d carries %v", msg.FirstGlobal, msg.IDs)
			}
			firsts = append(firsts, msg.FirstGlobal, msg.FirstGlobal+uint64(len(msg.IDs))-1)
		case *NackMsg:
			t.Errorf("a pruned id drew a data NACK for %v", msg.Want)
		default:
			t.Errorf("answered with %T", s.msg)
		}
	}
	if want := []uint64{11, 21}; !slices.Equal(firsts, want) {
		t.Errorf("answered with runs spanning %v, want %v", firsts, want)
	}
}

// hookNet calls after once after every handler and timer callback of
// the member registered through it.
type hookNet struct {
	transport.Network
	after func()
}

func (h *hookNet) Register(id transport.NodeID, f transport.Handler) {
	h.Network.Register(id, func(from transport.NodeID, payload any) {
		f(from, payload)
		h.after()
	})
}

func (h *hookNet) After(d time.Duration, f func()) {
	h.Network.After(d, func() {
		f()
		h.after()
	})
}

// TestSequencerLogBounded runs 3 000 casts from four writers through
// the benchmark's lossy link and holds the sequencer's assignment log
// and index to the unstable window: their peak stays within twice the
// peak stability-buffer occupancy plus one announcement run, where an
// unpruned log would keep every assignment of the epoch. A non-atomic
// group, which never answers order NACKs, keeps no log at all.
func TestSequencerLogBounded(t *testing.T) {
	link := transport.LinkConfig{BaseDelay: 5 * time.Millisecond, Jitter: 8 * time.Millisecond, LossProb: 0.02}
	const casts = 3000
	for _, ord := range []Ordering{TotalSeq, TotalCausal} {
		for _, n := range []int{8, 32} {
			for _, atomic := range []bool{true, false} {
				if !atomic && n != 8 {
					continue
				}
				t.Run(fmt.Sprintf("%v/n%d/atomic=%v", ord, n, atomic), func(t *testing.T) {
					t.Parallel()
					k := sim.NewKernel(int64(n) + int64(ord))
					net := transport.NewSimNet(k, link)
					nodes := make([]transport.NodeID, n)
					for i := range nodes {
						nodes[i] = transport.NodeID(i)
					}
					cfg := Config{Group: "b", Ordering: ord, Atomic: atomic}
					var peakLog, peakSpan int
					var seq *Member
					hook := &hookNet{Network: net, after: func() {
						s := seq.seq
						span := 0
						for _, r := range s.assigned {
							span += len(r.pos)
						}
						peakLog, peakSpan = max(peakLog, len(s.assignedLog)), max(peakSpan, span)
					}}
					delivered := make([]int, n)
					members := make([]*Member, n)
					for r := range members {
						var nw transport.Network = net
						if vclock.ProcessID(r) == cfg.SequencerRank {
							nw = hook
						}
						members[r] = NewMember(nw, nodes, vclock.ProcessID(r), cfg, func(Delivered) { delivered[r]++ })
					}
					seq = members[cfg.SequencerRank]
					for w := 0; w < 4; w++ {
						writer := members[w*n/4]
						for c := 0; c < casts/4; c++ {
							k.At(time.Duration(c)*time.Millisecond+time.Duration(w)*250*time.Microsecond, func() {
								writer.Multicast(c, 64)
							})
						}
					}
					k.RunUntil(casts/4*time.Millisecond + 2*time.Second)
					if !atomic { // loss wedges it: only the log is of interest
						if peakLog != 0 || peakSpan != 0 {
							t.Fatalf("a non-atomic sequencer logged %d assignments (index span %d)", peakLog, peakSpan)
						}
						return
					}
					for r, d := range delivered {
						if d != casts {
							t.Fatalf("rank %d delivered %d of %d", r, d, casts)
						}
					}
					bound := 2*int(seq.Stability().HighWater()) + orderRunMax
					t.Logf("peak log %d, index span %d; stability high-water %d", peakLog, peakSpan, seq.Stability().HighWater())
					if peakLog > bound || peakSpan > bound {
						t.Fatalf("peak log %d, index span %d; want both <= 2 x high-water %d + %d = %d",
							peakLog, peakSpan, seq.Stability().HighWater(), orderRunMax, bound)
					}
				})
			}
		}
	}
}
