package multicast

import (
	"slices"
	"testing"
	"time"

	"catocs/internal/sim"
	"catocs/internal/transport"
	"catocs/internal/vclock"
	"catocs/internal/wire"
)

// gapTap drops the data copies drop selects and records the recovery
// traffic that crosses the network.
type gapTap struct {
	transport.Network
	drop    func(to transport.NodeID, d *DataMsg) bool
	nacks   []sentNack
	retrans map[transport.NodeID]int // RetransMsgs sent to each node
	acks    int
	// mentions counts data copies whose piggybacked clock names a cast
	// drop removed.
	mentions int
	dropped  map[MsgID]bool
}

type sentNack struct {
	from, to transport.NodeID
	at       time.Duration
	want     []MsgID
}

func (g *gapTap) Send(from, to transport.NodeID, payload any) {
	switch p := payload.(type) {
	case *DataMsg:
		if g.drop(to, p) {
			g.dropped[p.ID()] = true
			return
		}
		for id := range g.dropped {
			if p.DeliveredVC != nil && p.DeliveredVC.Get(id.Sender) >= id.Seq {
				g.mentions++
			}
		}
	case *NackMsg:
		g.nacks = append(g.nacks, sentNack{from: from, to: to, at: g.Now(), want: p.Want})
	case *RetransMsg:
		g.retrans[to]++
	case *AckMsg:
		g.acks++
	}
	g.Network.Send(from, to, payload)
}

// parkWorld is a causal atomic group of three on a lossless 1 ms link
// in which rank 1 casts seven times in one instant and the copy of its
// second cast to rank 2 is lost, so casts 3..7 — deltas against their
// predecessor — park at rank 2 behind it.
func parkWorld(t *testing.T, ackInterval time.Duration) (*sim.Kernel, *gapTap, [][]Delivered) {
	t.Helper()
	k := sim.NewKernel(1)
	k.SetEventLimit(quiesceEventLimit)
	tap := &gapTap{
		Network: transport.NewSimNet(k, transport.LinkConfig{BaseDelay: time.Millisecond}),
		drop: func(to transport.NodeID, d *DataMsg) bool {
			return to == 2 && d.Sender == 1 && d.Seq == 2
		},
		retrans: make(map[transport.NodeID]int),
		dropped: make(map[MsgID]bool),
	}
	nodes := []transport.NodeID{0, 1, 2}
	got := make([][]Delivered, len(nodes))
	members := NewGroup(tap, nodes, Config{Group: "p", Ordering: Causal, Atomic: true,
		AckInterval: ackInterval, NackDelay: 10 * time.Millisecond},
		func(r vclock.ProcessID) DeliverFunc {
			return func(d Delivered) { got[r] = append(got[r], d) }
		})
	for i := 0; i < 7; i++ {
		members[1].Multicast(i, 8)
	}
	k.At(5*time.Millisecond, func() {
		if p := members[2].PendingCount(); p != 5 {
			t.Errorf("rank 2 holds %d arrivals after the loss, want casts 3..7 parked", p)
		}
	})
	return k, tap, got
}

// deliveredAll fails unless rank r delivered rank 1's seven casts in
// order.
func deliveredAll(t *testing.T, got [][]Delivered, r int) {
	t.Helper()
	if len(got[r]) != 7 {
		t.Fatalf("rank %d delivered %d of 7 casts", r, len(got[r]))
	}
	for i, d := range got[r] {
		if d.ID != (MsgID{Sender: 1, Seq: uint64(i + 1)}) {
			t.Fatalf("rank %d delivered %v at position %d", r, d.ID, i)
		}
	}
}

// TestNackSkipsParkedSuccessors loses one cast whose five successors
// park behind it. The parked deltas decode as soon as the lost cast's
// full-clock retransmission arrives, so the NACK names only the lost
// cast, and one retransmission brings all six.
func TestNackSkipsParkedSuccessors(t *testing.T) {
	k, tap, got := parkWorld(t, 10*time.Millisecond)
	k.Run()
	deliveredAll(t, got, 2)
	asked := 0
	for _, n := range tap.nacks {
		if n.from != 2 {
			continue
		}
		asked++
		if !slices.Equal(n.want, []MsgID{{Sender: 1, Seq: 2}}) {
			t.Errorf("t=%v rank 2 asked %d for %v, want only the lost 1:2", n.at, n.to, n.want)
		}
	}
	if asked == 0 {
		t.Fatal("rank 2 never sent a NACK")
	}
	if n := tap.retrans[2]; n != 1 {
		t.Errorf("rank 2 was sent %d retransmissions, want 1", n)
	}
}

// TestParkedArrivalArmsNack runs the same loss with acks held off past
// the end of the run and no piggybacked clock naming the lost cast:
// the parked arrivals are the only evidence of it. They alone must arm
// the NACK, so recovery finishes one NackDelay and one round trip after
// they arrive.
func TestParkedArrivalArmsNack(t *testing.T) {
	k, tap, got := parkWorld(t, time.Hour)
	k.RunUntil(200 * time.Millisecond)
	if tap.acks != 0 || tap.mentions != 0 {
		t.Fatalf("%d acks and %d piggybacked clocks named the lost cast; the world must offer neither", tap.acks, tap.mentions)
	}
	deliveredAll(t, got, 2)
	const arrival, nackDelay, rtt = time.Millisecond, 10 * time.Millisecond, 2 * time.Millisecond
	if last := got[2][6].At; last > arrival+nackDelay+rtt {
		t.Errorf("rank 2 recovered at %v, want by %v", last, arrival+nackDelay+rtt)
	}
}

// recNet records sends and timers and fires nothing on its own.
type recNet struct {
	sends  []recSend
	timers []func()
}

type recSend struct {
	to  transport.NodeID
	msg any
}

func (*recNet) Register(transport.NodeID, transport.Handler) {}
func (r *recNet) Send(_, to transport.NodeID, msg any)       { r.sends = append(r.sends, recSend{to, msg}) }
func (*recNet) Now() time.Duration                           { return 0 }
func (r *recNet) After(_ time.Duration, f func())            { r.timers = append(r.timers, f) }

// fire runs the timers pending now (not those they arm).
func (r *recNet) fire() {
	pending := r.timers
	r.timers = nil
	for _, f := range pending {
		f()
	}
}

// TestResumedParkedDeltaIsRequested rejoins a member from a checkpoint,
// which leaves each chain head's stamp unknown. The next delta from a
// sender parks on a stamp that no arrival will ever bring, so — unlike
// the delta parked behind it — it must be requested, and its full-clock
// retransmission then drains both.
func TestResumedParkedDeltaIsRequested(t *testing.T) {
	nodes := []transport.NodeID{0, 1, 2}
	rn := &recNet{}
	var got []MsgID
	m := NewMember(rn, nodes, 2, Config{Group: "r", Ordering: Causal, Atomic: true}, func(d Delivered) {
		got = append(got, d.ID)
	})
	m.ResumeChains(0, 0, []uint64{0, 5, 0}, 0)
	for _, q := range []uint64{6, 7} {
		m.Handle(nodes[1], &DataMsg{Group: "r", Sender: 1, Seq: q, VCDelta: []vclock.DeltaEntry{{Idx: 1, Val: q}}})
	}
	if m.parkedCount != 2 {
		t.Fatalf("%d parked, want casts 6 and 7", m.parkedCount)
	}
	var missing []MsgID
	m.eachMissing(func(id MsgID) bool { missing = append(missing, id); return true })
	if want := []MsgID{{Sender: 1, Seq: 6}}; !slices.Equal(missing, want) || !m.hasMissing() {
		t.Fatalf("missing set %v (hasMissing %v), want %v", missing, m.hasMissing(), want)
	}
	if !m.nackArmed {
		t.Fatal("the parked arrivals did not arm the NACK timer")
	}
	rn.fire()
	var asked []MsgID
	for _, s := range rn.sends {
		if n, ok := s.msg.(*NackMsg); ok && s.to == nodes[1] {
			asked = append(asked, n.Want...)
		}
	}
	if want := []MsgID{{Sender: 1, Seq: 6}}; !slices.Equal(asked, want) {
		t.Fatalf("NACKed %v to the sender, want %v", asked, want)
	}
	m.Handle(nodes[1], &RetransMsg{Group: "r", Data: &DataMsg{Group: "r", Sender: 1, Seq: 6, VC: vclock.VC{0, 6, 0}}})
	if want := []MsgID{{Sender: 1, Seq: 6}, {Sender: 1, Seq: 7}}; !slices.Equal(got, want) || m.PendingCount() != 0 {
		t.Fatalf("delivered %v holding %d, want %v and nothing held", got, m.PendingCount(), want)
	}
}

// TestOrderNackAnsweredInRuns asks the sequencer for the positions from
// 15 on and for ids it assigned at 3, 4, 9 and 14 (and at 17 and 4
// again, already covered). The answer is one run per contiguous range —
// [3,4], [9] and [14,20] — in ascending order, plus a data NACK for the
// one wanted id the sequencer never saw.
func TestOrderNackAnsweredInRuns(t *testing.T) {
	nodes := []transport.NodeID{0, 1, 2}
	rn := &recNet{}
	m := NewMember(rn, nodes, 0, Config{Group: "o", Ordering: TotalSeq, Atomic: true}, func(Delivered) {})
	ids := make([]MsgID, 21) // ids[g] is assigned position g
	for g := 1; g <= 20; g++ {
		ids[g] = MsgID{Sender: vclock.ProcessID(g % 3), Seq: uint64(g)}
		m.seq.assignOrder(ids[g])
	}
	unseen := MsgID{Sender: 2, Seq: 99}
	m.Handle(nodes[1], &OrderNack{Group: "o", From: 1, FromGlobal: 15,
		Want: []MsgID{ids[9], ids[4], ids[17], unseen, ids[14], ids[3], ids[4]}})
	type run struct {
		first uint64
		ids   []MsgID
	}
	var runs []run
	var nacked []MsgID
	for _, s := range rn.sends {
		if s.to != nodes[1] {
			t.Fatalf("sent %T to %d; only the requester should hear back", s.msg, s.to)
		}
		switch msg := s.msg.(type) {
		case *OrderBatchMsg:
			runs = append(runs, run{msg.FirstGlobal, msg.IDs})
		case *NackMsg:
			nacked = append(nacked, msg.Want...)
		default:
			t.Fatalf("answered with %T", s.msg)
		}
	}
	want := []run{{3, ids[3:5]}, {9, ids[9:10]}, {14, ids[14:21]}}
	if !slices.EqualFunc(runs, want, func(a, b run) bool { return a.first == b.first && slices.Equal(a.ids, b.ids) }) {
		t.Errorf("answered with runs %v, want %v", runs, want)
	}
	if !slices.Equal(nacked, []MsgID{unseen}) {
		t.Errorf("data NACK named %v, want %v", nacked, unseen)
	}
	rn.sends = nil
	m.Handle(nodes[1], &OrderNack{Group: "o", From: 1, FromGlobal: 21})
	if len(rn.sends) != 0 {
		t.Errorf("a requester already at the head was sent %d frames", len(rn.sends))
	}
	// A range longer than one frame may carry is split at the codec's
	// limit, so every frame still encodes.
	for g := 21; g <= wireMaxWant+2; g++ {
		m.seq.assignOrder(MsgID{Sender: 1, Seq: uint64(g)})
	}
	rn.sends = nil
	m.Handle(nodes[1], &OrderNack{Group: "o", From: 1, FromGlobal: 1})
	var firsts []uint64
	for _, s := range rn.sends {
		if _, _, err := wire.Marshal(s.msg); err != nil {
			t.Fatalf("a %d-position answer does not encode: %v", wireMaxWant+2, err)
		}
		firsts = append(firsts, s.msg.(*OrderBatchMsg).FirstGlobal)
	}
	if want := []uint64{1, wireMaxWant + 1}; !slices.Equal(firsts, want) {
		t.Errorf("a %d-position range went out as runs from %v, want %v", wireMaxWant+2, firsts, want)
	}
}

// TestFillDropsOvertakenParkedDeltas has a flush fill overtake a parked
// delta whose base never arrived: cast 3 parks behind the missing 2,
// and the fills deliver 2 and 4 (no survivor buffered 3, since a parked
// copy is not in the stability buffer). The dead parked copy must go,
// or it sits below the delivered frontier, still counted, and the gap
// test's count misses a real gap above it.
func TestFillDropsOvertakenParkedDeltas(t *testing.T) {
	nodes := []transport.NodeID{0, 1, 2}
	m := NewMember(&recNet{}, nodes, 2, Config{Group: "f", Ordering: Causal, Atomic: true}, func(Delivered) {})
	m.Handle(nodes[1], &DataMsg{Group: "f", Sender: 1, Seq: 1, VC: vclock.VC{0, 1, 0}})
	m.Handle(nodes[1], &DataMsg{Group: "f", Sender: 1, Seq: 3, VCDelta: []vclock.DeltaEntry{{Idx: 1, Val: 3}}})
	m.Suppress()
	for _, q := range []uint64{2, 4} {
		m.ForceDeliver(&DataMsg{Group: "f", Sender: 1, Seq: q, VC: vclock.VC{0, q, 0}})
	}
	if m.PendingCount() != 0 {
		t.Fatalf("holding %d after fills past every arrival", m.PendingCount())
	}
	m.onAck(&AckMsg{Group: "f", From: 0, Delivered: vclock.VC{0, 5, 0}})
	var missing []MsgID
	m.eachMissing(func(id MsgID) bool { missing = append(missing, id); return true })
	if want := []MsgID{{Sender: 1, Seq: 5}}; !slices.Equal(missing, want) || !m.hasMissing() {
		t.Fatalf("missing set %v (hasMissing %v), want %v", missing, m.hasMissing(), want)
	}
}
