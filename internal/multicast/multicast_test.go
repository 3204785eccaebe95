package multicast

import (
	"fmt"
	"testing"
	"time"

	"catocs/internal/sim"
	"catocs/internal/transport"
	"catocs/internal/vclock"
	"catocs/internal/wire"
)

// testGroup wires up a group of n members over a fresh simulated
// network and records per-member delivery sequences.
type testGroup struct {
	k       *sim.Kernel
	net     *transport.SimNet
	members []*Member
	// deliveries[rank] is the ordered list of delivered payloads.
	deliveries [][]any
	ids        [][]MsgID
}

func newTestGroup(t *testing.T, n int, seed int64, link transport.LinkConfig, cfg Config) *testGroup {
	t.Helper()
	k := sim.NewKernel(seed)
	k.SetEventLimit(5_000_000)
	net := transport.NewSimNet(k, link)
	g := &testGroup{k: k, net: net, deliveries: make([][]any, n), ids: make([][]MsgID, n)}
	nodes := make([]transport.NodeID, n)
	for i := range nodes {
		nodes[i] = transport.NodeID(i)
	}
	g.members = NewGroup(net, nodes, cfg, func(rank vclock.ProcessID) DeliverFunc {
		return func(d Delivered) {
			g.deliveries[rank] = append(g.deliveries[rank], d.Payload)
			g.ids[rank] = append(g.ids[rank], d.ID)
		}
	})
	return g
}

func (g *testGroup) close() {
	for _, m := range g.members {
		m.Close()
	}
}

// assertAllDelivered checks every member delivered exactly want
// payloads.
func (g *testGroup) assertAllDelivered(t *testing.T, want int) {
	t.Helper()
	for r, d := range g.deliveries {
		if len(d) != want {
			t.Fatalf("member %d delivered %d messages, want %d", r, len(d), want)
		}
	}
}

func TestUnorderedDelivery(t *testing.T) {
	g := newTestGroup(t, 3, 1, transport.LinkConfig{BaseDelay: time.Millisecond}, Config{Group: "g", Ordering: Unordered})
	g.members[0].Multicast("a", 1)
	g.members[1].Multicast("b", 1)
	g.k.Run()
	g.assertAllDelivered(t, 2)
}

func TestFIFOPerSenderOrder(t *testing.T) {
	// Heavy jitter reorders the network; FIFO must still deliver each
	// sender's stream in order.
	g := newTestGroup(t, 4, 3, transport.LinkConfig{Jitter: 20 * time.Millisecond}, Config{Group: "g", Ordering: FIFO})
	const per = 20
	for s := 0; s < 2; s++ {
		for i := 0; i < per; i++ {
			g.members[s].Multicast(fmt.Sprintf("s%d-%d", s, i), 8)
		}
	}
	g.k.Run()
	g.assertAllDelivered(t, 2*per)
	for r := range g.members {
		next := map[vclock.ProcessID]uint64{}
		for _, id := range g.ids[r] {
			if id.Seq != next[id.Sender]+1 {
				t.Fatalf("member %d: sender %d delivered seq %d after %d", r, id.Sender, id.Seq, next[id.Sender])
			}
			next[id.Sender] = id.Seq
		}
	}
}

func TestFIFOAllowsCrossSenderInterleaving(t *testing.T) {
	// FIFO imposes nothing across senders: with asymmetric link delays
	// two members see two senders' messages in different orders.
	k := sim.NewKernel(1)
	net := transport.NewSimNet(k, transport.LinkConfig{BaseDelay: time.Millisecond})
	// Sender 0 is slow to member 2 only.
	net.SetLink(0, 2, transport.LinkConfig{BaseDelay: 30 * time.Millisecond})
	nodes := []transport.NodeID{0, 1, 2}
	var orders [3][]any
	members := NewGroup(net, nodes, Config{Group: "g", Ordering: FIFO}, func(rank vclock.ProcessID) DeliverFunc {
		return func(d Delivered) { orders[rank] = append(orders[rank], d.Payload) }
	})
	members[0].Multicast("a", 1)
	members[1].Multicast("b", 1)
	k.Run()
	if orders[1][0] != "a" || orders[1][1] != "b" {
		t.Fatalf("member 1 order: %v", orders[1])
	}
	if orders[2][0] != "b" || orders[2][1] != "a" {
		t.Fatalf("member 2 should see b first on the slow link: %v", orders[2])
	}
}

func TestCausalRespectsHappensBefore(t *testing.T) {
	// The Figure-1 schedule: Q multicasts m1; P, on delivering m1,
	// multicasts m2. Causal order requires every member to deliver m1
	// before m2 even when the network favours m2.
	k := sim.NewKernel(5)
	net := transport.NewSimNet(k, transport.LinkConfig{BaseDelay: 2 * time.Millisecond})
	// m2 from P(rank 0) reaches R(rank 2) fast; m1 from Q(rank 1) is slow to R.
	net.SetLink(1, 2, transport.LinkConfig{BaseDelay: 50 * time.Millisecond})
	nodes := []transport.NodeID{0, 1, 2}
	var orders [3][]any
	var members []*Member
	members = NewGroup(net, nodes, Config{Group: "g", Ordering: Causal}, func(rank vclock.ProcessID) DeliverFunc {
		return func(d Delivered) {
			orders[rank] = append(orders[rank], d.Payload)
			if rank == 0 && d.Payload == "m1" {
				members[0].Multicast("m2", 1)
			}
		}
	})
	members[1].Multicast("m1", 1)
	k.Run()
	for r := 0; r < 3; r++ {
		if len(orders[r]) != 2 {
			t.Fatalf("member %d delivered %v", r, orders[r])
		}
		if orders[r][0] != "m1" || orders[r][1] != "m2" {
			t.Fatalf("member %d violated causal order: %v", r, orders[r])
		}
	}
}

func TestUnorderedViolatesHappensBefore(t *testing.T) {
	// Same schedule without ordering support: R sees m2 before m1,
	// demonstrating why CATOCS exists at all (§2).
	k := sim.NewKernel(5)
	net := transport.NewSimNet(k, transport.LinkConfig{BaseDelay: 2 * time.Millisecond})
	net.SetLink(1, 2, transport.LinkConfig{BaseDelay: 50 * time.Millisecond})
	nodes := []transport.NodeID{0, 1, 2}
	var orders [3][]any
	var members []*Member
	members = NewGroup(net, nodes, Config{Group: "g", Ordering: Unordered}, func(rank vclock.ProcessID) DeliverFunc {
		return func(d Delivered) {
			orders[rank] = append(orders[rank], d.Payload)
			if rank == 0 && d.Payload == "m1" {
				members[0].Multicast("m2", 1)
			}
		}
	})
	members[1].Multicast("m1", 1)
	k.Run()
	if len(orders[2]) != 2 || orders[2][0] != "m2" {
		t.Fatalf("expected anomaly at R, got %v", orders[2])
	}
}

func TestCausalConcurrentMessagesUnconstrained(t *testing.T) {
	// Concurrent multicasts may deliver in different orders at different
	// members under causal ordering (m3 ∥ m4 in Figure 1). Verify at
	// least one seed shows disagreement — if causal were accidentally
	// total this would never happen.
	disagree := false
	for seed := int64(0); seed < 40 && !disagree; seed++ {
		g := newTestGroup(t, 4, seed, transport.LinkConfig{Jitter: 10 * time.Millisecond}, Config{Group: "g", Ordering: Causal})
		g.members[0].Multicast("x", 1)
		g.members[1].Multicast("y", 1)
		g.k.Run()
		g.assertAllDelivered(t, 2)
		base := fmt.Sprint(g.deliveries[0])
		for r := 1; r < 4; r++ {
			if fmt.Sprint(g.deliveries[r]) != base {
				disagree = true
			}
		}
	}
	if !disagree {
		t.Fatal("no seed produced divergent concurrent delivery; causal layer may be over-ordering")
	}
}

func TestTotalSeqAgreementOnOrder(t *testing.T) {
	g := newTestGroup(t, 5, 9, transport.LinkConfig{Jitter: 15 * time.Millisecond}, Config{Group: "g", Ordering: TotalSeq})
	const per = 10
	for s := 0; s < 5; s++ {
		for i := 0; i < per; i++ {
			g.members[s].Multicast(fmt.Sprintf("s%d-%d", s, i), 8)
		}
	}
	g.k.Run()
	g.assertAllDelivered(t, 5*per)
	base := fmt.Sprint(g.deliveries[0])
	for r := 1; r < 5; r++ {
		if fmt.Sprint(g.deliveries[r]) != base {
			t.Fatalf("total order disagreement:\n%v\nvs\n%v", base, g.deliveries[r])
		}
	}
}

func TestTotalOrderPropertyManySeeds(t *testing.T) {
	// Property: under arbitrary jitter seeds, both sequencer orderings
	// give every member the identical delivery sequence.
	for _, ord := range []Ordering{TotalSeq, TotalCausal} {
		for seed := int64(0); seed < 15; seed++ {
			g := newTestGroup(t, 4, seed, transport.LinkConfig{Jitter: 25 * time.Millisecond}, Config{Group: "g", Ordering: ord})
			for s := 0; s < 4; s++ {
				for i := 0; i < 5; i++ {
					g.members[s].Multicast(fmt.Sprintf("s%d-%d", s, i), 4)
				}
			}
			g.k.Run()
			g.assertAllDelivered(t, 20)
			base := fmt.Sprint(g.deliveries[0])
			for r := 1; r < 4; r++ {
				if fmt.Sprint(g.deliveries[r]) != base {
					t.Fatalf("%v seed %d: disagreement", ord, seed)
				}
			}
		}
	}
}

func TestCausalSafetyPropertyManySeeds(t *testing.T) {
	// Property: under causal ordering, for every member and every pair
	// of delivered messages, if m_a's stamp happens-before m_b's stamp
	// then m_a was delivered first. We reconstruct stamps from delivery
	// ids using a parallel capture of VCs.
	for seed := int64(0); seed < 15; seed++ {
		k := sim.NewKernel(seed)
		net := transport.NewSimNet(k, transport.LinkConfig{Jitter: 20 * time.Millisecond})
		n := 4
		nodes := make([]transport.NodeID, n)
		for i := range nodes {
			nodes[i] = transport.NodeID(i)
		}
		type stamped struct {
			id MsgID
			vc vclock.VC
		}
		stamps := make(map[MsgID]vclock.VC)
		orders := make([][]stamped, n)
		var members []*Member
		members = NewGroup(net, nodes, Config{Group: "g", Ordering: Causal}, func(rank vclock.ProcessID) DeliverFunc {
			return func(d Delivered) {
				orders[rank] = append(orders[rank], stamped{id: d.ID, vc: stamps[d.ID]})
				// Reactive traffic creates genuine causal chains.
				if int(rank) == int(d.ID.Seq)%n && d.ID.Seq < 4 {
					id := members[rank].Multicast(fmt.Sprintf("r%d-%d", rank, d.ID.Seq), 4)
					stamps[id] = members[rank].lastSentVC()
				}
			}
		})
		for s := 0; s < n; s++ {
			for i := 0; i < 3; i++ {
				id := members[s].Multicast(fmt.Sprintf("s%d-%d", s, i), 4)
				stamps[id] = members[s].lastSentVC()
			}
		}
		k.Run()
		for r := 0; r < n; r++ {
			for i := 0; i < len(orders[r]); i++ {
				for j := i + 1; j < len(orders[r]); j++ {
					a, b := orders[r][i], orders[r][j]
					if b.vc.HappensBefore(a.vc) {
						t.Fatalf("seed %d member %d: delivered %v before %v but %v happens-before %v",
							seed, r, a.id, b.id, b.id, a.id)
					}
				}
			}
		}
	}
}

// lastSentVC exposes the stamp of the most recent multicast for the
// safety property test.
func (m *Member) lastSentVC() vclock.VC {
	vc := m.delivered.Clone()
	vc.Set(m.rank, m.sendSeq)
	return vc
}

func TestCausalStallsOnLossWithoutAtomic(t *testing.T) {
	// Loss with no retransmission: a dropped message blocks all causal
	// successors forever — the §2 motivation for atomic delivery.
	k := sim.NewKernel(1)
	net := transport.NewSimNet(k, transport.LinkConfig{BaseDelay: time.Millisecond})
	nodes := []transport.NodeID{0, 1, 2}
	var orders [3][]any
	var members []*Member
	members = NewGroup(net, nodes, Config{Group: "g", Ordering: Causal}, func(rank vclock.ProcessID) DeliverFunc {
		return func(d Delivered) { orders[rank] = append(orders[rank], d.Payload) }
	})
	// First message from member 0 is lost on the link to member 2 only.
	net.SetLink(0, 2, transport.LinkConfig{LossProb: 1.0})
	members[0].Multicast("lost", 1)
	net.SetLink(0, 2, transport.LinkConfig{BaseDelay: time.Millisecond})
	members[0].Multicast("blocked-1", 1)
	members[0].Multicast("blocked-2", 1)
	k.Run()
	if len(orders[2]) != 0 {
		t.Fatalf("member 2 should be stalled, delivered %v", orders[2])
	}
	if members[2].PendingCount() != 2 {
		t.Fatalf("member 2 pending = %d, want 2", members[2].PendingCount())
	}
	// Members 0 and 1 are unaffected.
	if len(orders[0]) != 3 || len(orders[1]) != 3 {
		t.Fatalf("unaffected members stalled: %v %v", orders[0], orders[1])
	}
}

func TestAtomicRecoversFromLoss(t *testing.T) {
	// Same scenario with Atomic=true: the NACK/retransmit path fills the
	// gap and delivery completes in causal order.
	k := sim.NewKernel(1)
	net := transport.NewSimNet(k, transport.LinkConfig{BaseDelay: time.Millisecond})
	nodes := []transport.NodeID{0, 1, 2}
	var orders [3][]any
	var members []*Member
	members = NewGroup(net, nodes, Config{Group: "g", Ordering: Causal, Atomic: true}, func(rank vclock.ProcessID) DeliverFunc {
		return func(d Delivered) { orders[rank] = append(orders[rank], d.Payload) }
	})
	net.SetLink(0, 2, transport.LinkConfig{LossProb: 1.0})
	members[0].Multicast("recovered", 1)
	net.SetLink(0, 2, transport.LinkConfig{BaseDelay: time.Millisecond})
	members[0].Multicast("after-1", 1)
	members[0].Multicast("after-2", 1)
	k.RunUntil(2 * time.Second)
	if len(orders[2]) != 3 {
		t.Fatalf("member 2 delivered %v, want all 3", orders[2])
	}
	if orders[2][0] != "recovered" || orders[2][1] != "after-1" {
		t.Fatalf("recovery broke order: %v", orders[2])
	}
	for _, m := range members {
		m.Close()
	}
}

func TestAtomicRecoversUnderSustainedLoss(t *testing.T) {
	// 20% loss on all links, many senders: atomic causal delivery must
	// still deliver everything everywhere, in causal order.
	g := newTestGroup(t, 4, 13, transport.LinkConfig{BaseDelay: time.Millisecond, Jitter: 3 * time.Millisecond, LossProb: 0.2},
		Config{Group: "g", Ordering: Causal, Atomic: true, AckInterval: 10 * time.Millisecond, NackDelay: 10 * time.Millisecond})
	const per = 15
	for s := 0; s < 4; s++ {
		for i := 0; i < per; i++ {
			s, i := s, i
			g.k.At(time.Duration(i)*5*time.Millisecond, func() {
				g.members[s].Multicast(fmt.Sprintf("s%d-%d", s, i), 8)
			})
		}
	}
	g.k.RunUntil(5 * time.Second)
	g.assertAllDelivered(t, 4*per)
	g.close()
}

func TestAtomicStabilityDrainsBuffers(t *testing.T) {
	// After quiescence with no loss, the ack rounds must empty every
	// unstable buffer.
	g := newTestGroup(t, 3, 2, transport.LinkConfig{BaseDelay: time.Millisecond},
		Config{Group: "g", Ordering: Causal, Atomic: true, AckInterval: 5 * time.Millisecond})
	for i := 0; i < 10; i++ {
		g.members[i%3].Multicast(i, 8)
	}
	g.k.RunUntil(2 * time.Second)
	for r, m := range g.members {
		if occ := m.Stability().Occupancy(); occ != 0 {
			t.Fatalf("member %d still buffers %d unstable messages", r, occ)
		}
		if m.Stability().HighWater() == 0 {
			t.Fatalf("member %d never buffered anything", r)
		}
	}
	g.close()
}

func TestSenderCrashAfterLocalDelivery(t *testing.T) {
	// The §2 non-durability anomaly: a member multicasts, its message
	// reaches nobody (crash immediately after send), yet it may have
	// acted on its own message locally. Remaining members never deliver.
	k := sim.NewKernel(1)
	net := transport.NewSimNet(k, transport.LinkConfig{BaseDelay: 5 * time.Millisecond})
	nodes := []transport.NodeID{0, 1, 2}
	var orders [3][]any
	var members []*Member
	members = NewGroup(net, nodes, Config{Group: "g", Ordering: Causal, Atomic: true}, func(rank vclock.ProcessID) DeliverFunc {
		return func(d Delivered) { orders[rank] = append(orders[rank], d.Payload) }
	})
	members[0].Multicast("doomed", 1)
	net.Crash(0) // crash with the message still in flight
	k.RunUntil(time.Second)
	if len(orders[1]) != 0 || len(orders[2]) != 0 {
		t.Fatalf("survivors delivered a message whose sender crashed mid-protocol: %v %v", orders[1], orders[2])
	}
	for _, m := range members {
		m.Close()
	}
}

func TestEpochFiltering(t *testing.T) {
	g := newTestGroup(t, 3, 1, transport.LinkConfig{BaseDelay: 10 * time.Millisecond}, Config{Group: "g", Ordering: Causal})
	g.members[0].Multicast("old-epoch", 1)
	// Members 1,2 move to epoch 1 before the message lands.
	nodes := []transport.NodeID{0, 1, 2}
	g.members[1].InstallView(nodes, 1, 1)
	g.members[2].InstallView(nodes, 2, 1)
	g.k.Run()
	if len(g.deliveries[1]) != 0 || len(g.deliveries[2]) != 0 {
		t.Fatalf("old-epoch message delivered after view change: %v %v", g.deliveries[1], g.deliveries[2])
	}
	// Member 0 (still epoch 0) delivers its own copy.
	if len(g.deliveries[0]) != 1 {
		t.Fatalf("member 0 deliveries = %v", g.deliveries[0])
	}
}

func TestGroupNameFiltering(t *testing.T) {
	// Two groups share nodes via a mux; traffic must not cross.
	k := sim.NewKernel(1)
	net := transport.NewSimNet(k, transport.LinkConfig{})
	mux := transport.NewMux(net)
	nodes := []transport.NodeID{0, 1}
	var ga, gb []any
	ma := NewGroup(mux, nodes, Config{Group: "a", Ordering: FIFO}, func(vclock.ProcessID) DeliverFunc {
		return func(d Delivered) { ga = append(ga, d.Payload) }
	})
	NewGroup(mux, nodes, Config{Group: "b", Ordering: FIFO}, func(vclock.ProcessID) DeliverFunc {
		return func(d Delivered) { gb = append(gb, d.Payload) }
	})
	ma[0].Multicast("for-a", 1)
	k.Run()
	if len(ga) != 2 { // both members of group a
		t.Fatalf("group a deliveries = %v", ga)
	}
	if len(gb) != 0 {
		t.Fatalf("group b received cross-group traffic: %v", gb)
	}
}

func TestDuplicateSuppression(t *testing.T) {
	g := newTestGroup(t, 3, 4, transport.LinkConfig{BaseDelay: time.Millisecond, DupProb: 1.0}, Config{Group: "g", Ordering: Causal})
	g.members[0].Multicast("once", 1)
	g.k.Run()
	g.assertAllDelivered(t, 1)
	var dups uint64
	for _, m := range g.members {
		dups += m.Duplicates.Value()
	}
	if dups == 0 {
		t.Fatal("expected duplicate copies to be counted")
	}
}

func TestSuppressionQueuesSends(t *testing.T) {
	g := newTestGroup(t, 3, 1, transport.LinkConfig{BaseDelay: time.Millisecond}, Config{Group: "g", Ordering: FIFO})
	g.members[0].Suppress()
	g.members[0].Multicast("held", 1)
	g.k.Run()
	g.assertAllDelivered(t, 0)
	g.members[0].Resume()
	g.k.Run()
	g.assertAllDelivered(t, 1)
}

func TestViewChangeReRanks(t *testing.T) {
	g := newTestGroup(t, 3, 1, transport.LinkConfig{BaseDelay: time.Millisecond}, Config{Group: "g", Ordering: Causal})
	g.members[0].Multicast("epoch0", 1)
	g.k.Run()
	// Drop member 0; survivors re-rank densely.
	newNodes := []transport.NodeID{1, 2}
	g.members[1].InstallView(newNodes, 0, 1)
	g.members[2].InstallView(newNodes, 1, 1)
	g.members[1].Multicast("epoch1", 1)
	g.k.Run()
	if len(g.deliveries[1]) != 2 || len(g.deliveries[2]) != 2 {
		t.Fatalf("post-view deliveries: %v %v", g.deliveries[1], g.deliveries[2])
	}
	if g.members[1].GroupSize() != 2 || g.members[1].Rank() != 0 {
		t.Fatalf("view not installed: size=%d rank=%d", g.members[1].GroupSize(), g.members[1].Rank())
	}
}

func TestInstallViewWrongAddressPanics(t *testing.T) {
	g := newTestGroup(t, 2, 1, transport.LinkConfig{}, Config{Group: "g", Ordering: FIFO})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when view changes the member's address")
		}
	}()
	g.members[0].InstallView([]transport.NodeID{5, 6}, 0, 1)
}

func TestForceDeliverSkipsDuplicates(t *testing.T) {
	g := newTestGroup(t, 2, 1, transport.LinkConfig{}, Config{Group: "g", Ordering: Causal})
	g.members[0].Multicast("m", 1)
	g.k.Run()
	msg := &DataMsg{Group: "g", Sender: 0, Seq: 1, Payload: "m", SentAt: 0}
	g.members[1].ForceDeliver(msg) // already delivered; must be ignored
	if len(g.deliveries[1]) != 1 {
		t.Fatalf("force-deliver duplicated: %v", g.deliveries[1])
	}
	msg2 := &DataMsg{Group: "g", Sender: 0, Seq: 2, Payload: "fill", SentAt: 0}
	g.members[1].ForceDeliver(msg2)
	if len(g.deliveries[1]) != 2 || g.deliveries[1][1] != "fill" {
		t.Fatalf("force-deliver of new message failed: %v", g.deliveries[1])
	}
}

func TestUnstableDataSorted(t *testing.T) {
	g := newTestGroup(t, 2, 1, transport.LinkConfig{BaseDelay: time.Millisecond},
		Config{Group: "g", Ordering: Causal, Atomic: true, AckInterval: time.Hour})
	g.members[0].Multicast("a", 1)
	g.members[0].Multicast("b", 1)
	g.members[1].Multicast("c", 1)
	g.k.RunUntil(100 * time.Millisecond)
	un := g.members[0].UnstableData()
	if len(un) != 3 {
		t.Fatalf("unstable count = %d, want 3", len(un))
	}
	for i := 1; i < len(un); i++ {
		if un[i-1].Sender > un[i].Sender ||
			(un[i-1].Sender == un[i].Sender && un[i-1].Seq >= un[i].Seq) {
			t.Fatalf("unstable data not sorted: %v then %v", un[i-1].ID(), un[i].ID())
		}
	}
	g.close()
}

func TestClosedMemberInert(t *testing.T) {
	g := newTestGroup(t, 2, 1, transport.LinkConfig{}, Config{Group: "g", Ordering: FIFO})
	g.members[0].Close()
	id := g.members[0].Multicast("nope", 1)
	if (id != MsgID{}) {
		t.Fatalf("closed member returned id %v", id)
	}
	g.k.Run()
	g.assertAllDelivered(t, 0)
}

func TestLatencyMetricsRecorded(t *testing.T) {
	g := newTestGroup(t, 3, 1, transport.LinkConfig{BaseDelay: 7 * time.Millisecond}, Config{Group: "g", Ordering: FIFO})
	g.members[0].Multicast("m", 1)
	g.k.Run()
	for r, m := range g.members {
		if m.Latency.Count() != 1 {
			t.Fatalf("member %d latency samples = %d", r, m.Latency.Count())
		}
		if lat := m.Latency.Mean(); lat < 0.006 || lat > 0.008 {
			t.Fatalf("member %d latency = %v, want ~7ms", r, lat)
		}
	}
}

func TestOrderingString(t *testing.T) {
	for o, want := range map[Ordering]string{
		Unordered: "unordered", FIFO: "fifo", Causal: "causal",
		TotalSeq: "total-seq", TotalCausal: "total-causal",
	} {
		if o.String() != want {
			t.Errorf("%d.String() = %q", int(o), o.String())
		}
	}
}

// TestApproxSizes pins the size model the simulator charges: a
// registered message costs exactly the bytes its codec writes, and its
// control bytes are those minus the application payload. An in-process
// payload the codec cannot carry is charged as PayloadSize bytes.
func TestApproxSizes(t *testing.T) {
	covered := map[wire.Kind]bool{}
	for _, in := range sampleMsgs() {
		kind, buf, err := wire.Marshal(in)
		if err != nil {
			t.Fatalf("Marshal(%T): %v", in, err)
		}
		covered[kind] = true
		if got := transport.ApproxSize(in); got != len(buf) {
			t.Errorf("%T: ApproxSize %d, encoded %d bytes", in, got, len(buf))
		}
	}
	for k := wire.KindMulticast; k < wire.KindMulticast+0x10; k++ {
		if wire.KindName(k) != "" && !covered[k] {
			t.Errorf("kind %#04x (%s) has no sample", uint16(k), wire.KindName(k))
		}
	}
	bytesMsg := &DataMsg{Group: "g", Seq: 9, VC: vclock.New(4), Payload: make([]byte, 100), PayloadSize: 100}
	valueMsg := &DataMsg{Group: "g", Seq: 9, VC: vclock.New(4), Payload: 7, PayloadSize: 100}
	if a, b := transport.ApproxSize(bytesMsg), transport.ApproxSize(valueMsg); a != b {
		t.Fatalf("in-process payload charged %d B, its []byte twin %d B", b, a)
	}
	if got, want := transport.ControlSize(valueMsg), transport.ApproxSize(valueMsg)-100; got != want {
		t.Fatalf("control bytes %d, want %d (all but the payload)", got, want)
	}
	r := &RetransMsg{Group: "g", Data: bytesMsg}
	if got, want := transport.ControlSize(r), transport.ApproxSize(r)-100; got != want {
		t.Fatalf("retransmission control bytes %d, want %d", got, want)
	}
}

func TestMsgIDString(t *testing.T) {
	if (MsgID{Sender: 2, Seq: 7}).String() != "2:7" {
		t.Fatal("MsgID string format changed")
	}
}
