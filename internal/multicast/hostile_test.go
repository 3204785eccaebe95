package multicast

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"catocs/internal/sim"
	"catocs/internal/transport"
	"catocs/internal/vclock"
)

// nackTap records the NACKs a network carries.
type nackTap struct {
	transport.Network
	nacks []*NackMsg
}

func (n *nackTap) Send(from, to transport.NodeID, payload any) {
	if nk, ok := payload.(*NackMsg); ok {
		n.nacks = append(n.nacks, nk)
	}
	n.Network.Send(from, to, payload)
}

// TestHostileClockEntry hands member 0 of a causal atomic group of
// three one frame from rank 1 that names sequence number 2^40: an ack
// claiming rank 1 delivered that many of its own casts, or a cast
// carrying it. Neither may wedge the member: the ack's claim is
// clamped at the last sequence the door lets in and each NACK round asks
// for at most wireMaxWant ids, the cast is dropped at the door. The
// world must finish its run within a second of wall time, and rank 1's
// next real cast must still be delivered.
func TestHostileClockEntry(t *testing.T) {
	const far = 1 << 40
	frames := map[string]any{
		"ack":  &AckMsg{Group: "h", From: 1, Delivered: vclock.VC{0, far, 0}},
		"data": &DataMsg{Group: "h", Sender: 1, Seq: far, VC: vclock.VC{0, far, 0}},
	}
	for name, frame := range frames {
		t.Run(name, func(t *testing.T) {
			k := sim.NewKernel(1)
			k.SetEventLimit(quiesceEventLimit)
			tap := &nackTap{Network: transport.NewSimNet(k, transport.LinkConfig{BaseDelay: time.Millisecond})}
			nodes := []transport.NodeID{0, 1, 2}
			var got []MsgID
			members := NewGroup(tap, nodes, Config{Group: "h", Ordering: Causal, Atomic: true}, func(r vclock.ProcessID) DeliverFunc {
				if r != 0 {
					return nil
				}
				return func(d Delivered) { got = append(got, d.ID) }
			})
			k.At(0, func() { members[0].Handle(nodes[1], frame) })
			k.At(50*time.Millisecond, func() { members[1].Multicast("real", 8) })
			start, done := time.Now(), make(chan struct{})
			go func() {
				k.RunUntil(300 * time.Millisecond)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				// A wedged member spins and allocates without end: stop
				// the whole binary rather than let it run on.
				panic("member 0 is still busy after 2 s of wall time")
			}
			if wall := time.Since(start); wall > time.Second {
				t.Fatalf("300 ms of virtual time took %v of wall time", wall)
			}
			if len(got) != 1 || got[0] != (MsgID{Sender: 1, Seq: 1}) {
				t.Fatalf("member 0 delivered %v, want rank 1's cast 1", got)
			}
			m := members[0]
			if lim := m.delivered[1] + maxSeqWindow - 1; m.known[1] > lim {
				t.Errorf("known[1] = %d, past the last sequence the door lets in (%d)", m.known[1], lim)
			}
			for _, n := range tap.nacks {
				if len(n.Want) > wireMaxWant {
					t.Fatalf("a NACK asks for %d ids, more than wireMaxWant", len(n.Want))
				}
			}
			if name == "data" && m.FarDrops.Value() != 1 {
				t.Errorf("FarDrops = %d, want 1", m.FarDrops.Value())
			}
		})
	}
}

// TestDoorBoundsAlloc pins the door under every ordering of an atomic
// group. Sender 1's cast 2 is held or buffered first, so each of its
// windows holds a key. The last cast the door lets in, at the frontier
// plus maxSeqWindow-1, is taken in and allocates a few megabytes at
// most, however many windows it stretches; casts at the frontier plus
// maxSeqWindow and at 2^40 are dropped and counted and allocate almost
// nothing, where windows stretched to them would take more than the
// address space.
func TestDoorBoundsAlloc(t *testing.T) {
	for _, ord := range []Ordering{FIFO, Causal, TotalSeq, TotalCausal} {
		nodes := []transport.NodeID{0, 1, 2}
		m := NewMember(nullNet{}, nodes, 0, Config{Group: "d", Ordering: ord, Atomic: true}, func(Delivered) {})
		handle := func(seqs ...uint64) (alloc uint64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, q := range seqs {
				m.Handle(nodes[1], &DataMsg{Group: "d", Sender: 1, Seq: q, VC: vclock.VC{0, q, 0}})
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		handle(2)
		if grew := handle(maxSeqWindow - 1); grew >= 4<<20 {
			t.Errorf("%v: the last cast inside the door allocated %d bytes", ord, grew)
		}
		held, buffered := m.PendingCount(), m.Stability().Unstable()
		if m.FarDrops.Value() != 0 || buffered != 2 {
			t.Errorf("%v: FarDrops = %d with %d buffered; want the cast inside the door taken in", ord, m.FarDrops.Value(), buffered)
		}
		if grew := handle(maxSeqWindow, 1<<40); grew >= 64<<10 {
			t.Errorf("%v: the far casts allocated %d bytes", ord, grew)
		}
		if m.FarDrops.Value() != 2 || m.PendingCount() != held || m.Stability().Unstable() != buffered {
			t.Errorf("%v: FarDrops = %d with %d held and %d buffered; want both casts dropped and counted",
				ord, m.FarDrops.Value(), m.PendingCount(), m.Stability().Unstable())
		}
	}
}

// TestUnorderedWithoutDoor loses sender 1's first cast to a
// non-atomic Unordered member, which never asks for it again, so its
// delivered set's contiguous frontier stays at 0 for good. It buffers
// nothing, so it has no door: casts far past that frontier are still
// delivered on arrival.
func TestUnorderedWithoutDoor(t *testing.T) {
	nodes := []transport.NodeID{0, 1, 2}
	var got []MsgID
	m := NewMember(nullNet{}, nodes, 0, Config{Group: "u", Ordering: Unordered}, func(d Delivered) { got = append(got, d.ID) })
	want := []MsgID{{Sender: 1, Seq: 2}, {Sender: 1, Seq: 1 + maxSeqWindow}, {Sender: 1, Seq: 1 << 40}}
	for _, id := range want {
		m.Handle(nodes[1], &DataMsg{Group: "u", Sender: id.Sender, Seq: id.Seq})
	}
	if !slices.Equal(got, want) || m.FarDrops.Value() != 0 {
		t.Errorf("delivered %v with FarDrops = %d; want %v and none dropped", got, m.FarDrops.Value(), want)
	}
}

// TestUnorderedAtomicRefused pins that NewMember refuses an atomic
// Unordered group, with a reason, rather than building a member whose
// resumed checkpoint cannot say what it delivered above a gap.
func TestUnorderedAtomicRefused(t *testing.T) {
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "non-atomic only") {
			t.Fatalf("NewMember(Unordered, Atomic) recovered %q, want a refusal", r)
		}
	}()
	NewMember(nullNet{}, []transport.NodeID{0, 1, 2}, 0, Config{Group: "u", Ordering: Unordered, Atomic: true}, nil)
}
