package scalecast

import (
	"fmt"
	"testing"
	"time"

	"catocs/internal/multicast"
	"catocs/internal/sim"
	"catocs/internal/transport"
	"catocs/internal/vclock"
)

// testGroup wires a scalecast group over a fresh simulated network and
// records per-member delivery sequences, mirroring the multicast test
// harness so the two substrates are exercised identically.
type testGroup struct {
	k          *sim.Kernel
	net        *transport.SimNet
	nodes      []transport.NodeID
	members    []*Member
	deliveries [][]any
	ids        [][]multicast.MsgID
}

func newTestGroup(t *testing.T, n int, seed int64, link transport.LinkConfig, cfg Config) *testGroup {
	t.Helper()
	k := sim.NewKernel(seed)
	k.SetEventLimit(5_000_000)
	net := transport.NewSimNet(k, link)
	g := &testGroup{k: k, net: net, deliveries: make([][]any, n), ids: make([][]multicast.MsgID, n)}
	g.nodes = make([]transport.NodeID, n)
	for i := range g.nodes {
		g.nodes[i] = transport.NodeID(i)
	}
	g.members = NewGroup(net, g.nodes, cfg, func(rank vclock.ProcessID) multicast.DeliverFunc {
		return func(d multicast.Delivered) {
			g.deliveries[rank] = append(g.deliveries[rank], d.Payload)
			g.ids[rank] = append(g.ids[rank], d.ID)
		}
	})
	return g
}

func (g *testGroup) assertAllDelivered(t *testing.T, want int) {
	t.Helper()
	for r, d := range g.deliveries {
		if len(d) != want {
			t.Fatalf("member %d delivered %d messages, want %d", r, len(d), want)
		}
	}
}

// assertPerOriginFIFO checks each member saw every origin's seqs in
// strictly increasing order (which also rules out duplicates). Gaps
// are legal at the application layer: protocol-internal barrier
// broadcasts share the per-origin sequence space but are never
// surfaced; completeness is asserted separately via exact counts.
func (g *testGroup) assertPerOriginFIFO(t *testing.T) {
	t.Helper()
	for r := range g.ids {
		last := map[vclock.ProcessID]uint64{}
		for _, id := range g.ids[r] {
			if id.Seq <= last[id.Sender] {
				t.Fatalf("member %d: origin %d delivered seq %d after %d", r, id.Sender, id.Seq, last[id.Sender])
			}
			last[id.Sender] = id.Seq
		}
	}
}

func TestOverlayShape(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 16, 64, 257} {
		view := make([]transport.NodeID, n)
		for i := range view {
			view[i] = transport.NodeID(i * 3) // non-contiguous IDs
		}
		adj := make(map[transport.NodeID]map[transport.NodeID]bool)
		maxDeg := 0
		for _, self := range view {
			peers := overlayNeighbors(view, self, 4)
			adj[self] = map[transport.NodeID]bool{}
			for _, p := range peers {
				if p == self {
					t.Fatalf("n=%d: self loop at %d", n, self)
				}
				adj[self][p] = true
			}
			if len(peers) > maxDeg {
				maxDeg = len(peers)
			}
		}
		// Symmetry: circulant offsets wire both directions.
		for a, peers := range adj {
			for b := range peers {
				if !adj[b][a] {
					t.Fatalf("n=%d: asymmetric link %d->%d", n, a, b)
				}
			}
		}
		// Bounded degree: at most 2 offsets * 2 directions.
		if maxDeg > 4 {
			t.Fatalf("n=%d: degree %d exceeds target 4", n, maxDeg)
		}
		// Connectivity via BFS from view[0].
		seen := map[transport.NodeID]bool{view[0]: true}
		frontier := []transport.NodeID{view[0]}
		for len(frontier) > 0 {
			var next []transport.NodeID
			for _, v := range frontier {
				for p := range adj[v] {
					if !seen[p] {
						seen[p] = true
						next = append(next, p)
					}
				}
			}
			frontier = next
		}
		if len(seen) != n {
			t.Fatalf("n=%d: overlay disconnected, reached %d of %d", n, len(seen), n)
		}
	}
}

func TestBasicDelivery(t *testing.T) {
	g := newTestGroup(t, 8, 1, transport.LinkConfig{BaseDelay: time.Millisecond}, Config{Group: "g"})
	g.members[0].Multicast("a", 8)
	g.members[5].Multicast("b", 8)
	g.k.Run()
	g.assertAllDelivered(t, 2)
	g.assertPerOriginFIFO(t)
}

func TestCausalRespectsHappensBefore(t *testing.T) {
	// The paper's Figure-1 schedule: Q multicasts m1; P, on delivering
	// m1, multicasts m2. Even with the network heavily favouring P→R,
	// R must deliver m1 first — here the guarantee comes from the
	// forward-before-deliver flood, not from vector clocks.
	k := sim.NewKernel(7)
	net := transport.NewSimNet(k, transport.LinkConfig{BaseDelay: 2 * time.Millisecond})
	nodes := []transport.NodeID{0, 1, 2} // P, Q, R
	net.SetLink(1, 2, transport.LinkConfig{BaseDelay: 40 * time.Millisecond})
	var orders [3][]any
	members := NewGroup(net, nodes, Config{Group: "g"}, func(rank vclock.ProcessID) multicast.DeliverFunc {
		return func(d multicast.Delivered) { orders[rank] = append(orders[rank], d.Payload) }
	})
	// P reacts to m1 by multicasting m2.
	reacted := false
	p := members[0]
	base := p.deliver
	p.deliver = func(d multicast.Delivered) {
		base(d)
		if d.Payload == "m1" && !reacted {
			reacted = true
			p.Multicast("m2", 8)
		}
	}
	members[1].Multicast("m1", 8)
	k.Run()
	for r, o := range orders {
		if len(o) != 2 || o[0] != "m1" || o[1] != "m2" {
			t.Fatalf("member %d delivered %v, want [m1 m2]", r, o)
		}
	}
}

func TestLossRecovery(t *testing.T) {
	// 20% loss with jitter: per-link nack/retransmission must still get
	// every message everywhere, exactly once, in per-origin order.
	g := newTestGroup(t, 9, 11,
		transport.LinkConfig{BaseDelay: time.Millisecond, Jitter: 3 * time.Millisecond, LossProb: 0.2},
		Config{Group: "g"})
	const per = 10
	for s := 0; s < 3; s++ {
		for i := 0; i < per; i++ {
			sender := g.members[s*3]
			g.k.At(time.Duration(i)*2*time.Millisecond, func() {
				sender.Multicast(fmt.Sprintf("o%d-%d", sender.Node(), i), 16)
			})
		}
	}
	g.k.Run()
	g.assertAllDelivered(t, 3*per)
	g.assertPerOriginFIFO(t)
	// The hybrid buffer must drain once everything is acked.
	for r, m := range g.members {
		if n := m.RetransBufferCount(); n != 0 {
			t.Fatalf("member %d retains %d unacked packets after quiescence", r, n)
		}
		if n := m.PendingCount(); n != 0 {
			t.Fatalf("member %d retains %d pending messages after quiescence", r, n)
		}
	}
}

func TestPartitionHeal(t *testing.T) {
	g := newTestGroup(t, 8, 3, transport.LinkConfig{BaseDelay: time.Millisecond}, Config{Group: "g"})
	g.k.At(0, func() {
		g.net.Partition([]transport.NodeID{0, 1, 2, 3}, []transport.NodeID{4, 5, 6, 7})
	})
	g.k.At(time.Millisecond, func() {
		g.members[0].Multicast("left", 8)
		g.members[4].Multicast("right", 8)
	})
	g.k.At(200*time.Millisecond, func() { g.net.Heal() })
	g.k.Run()
	g.assertAllDelivered(t, 2)
	g.assertPerOriginFIFO(t)
}

func TestConstantControlMetadata(t *testing.T) {
	// The headline property: per-message wire control bytes do not grow
	// with the group. Compare a scalecast data packet against CBCAST's
	// DataMsg at N=8 and N=512. Both are the codec's exact bytes, both
	// varint-encoded: the packet's header is 14 B whatever the group,
	// while every clock entry costs CBCAST at least one byte.
	for _, n := range []int{8, 512} {
		fm := &FloodMsg{Group: "g", Origin: 3, Seq: 9, PayloadSize: 100}
		pkt := &LinkPacket{Group: "g", Session: 1, Seq: 4, Msg: fm}
		if got := transport.ControlSize(pkt); got != 14 {
			t.Fatalf("n=%d: scalecast packet control bytes = %d, want 14", n, got)
		}
		vc := make(vclock.VC, n)
		dm := &multicast.DataMsg{Group: "g", VC: vc, PayloadSize: 100}
		if got := transport.ControlSize(dm); got < n {
			t.Fatalf("n=%d: CBCAST control bytes = %d, expected >= %d (vector clock)", n, got, n)
		}
	}
}

// runJoin drives a 6-member group, has node 6 join mid-stream, and
// returns the joiner's delivery log plus the group harness.
func TestJoinMidStream(t *testing.T) {
	g := newTestGroup(t, 6, 17, transport.LinkConfig{BaseDelay: time.Millisecond, Jitter: 2 * time.Millisecond}, Config{Group: "g"})
	// Pre-join traffic.
	for i := 0; i < 5; i++ {
		sender := g.members[i%3]
		g.k.At(time.Duration(i)*2*time.Millisecond, func() { sender.Multicast(fmt.Sprintf("pre-%d", i), 8) })
	}

	var joiner *Member
	var joinerLog []any
	var joinerIDs []multicast.MsgID
	newView := append(append([]transport.NodeID(nil), g.nodes...), 6)
	g.k.At(20*time.Millisecond, func() {
		joiner = JoinMember(g.net, newView, 6, Config{Group: "g"}, func(d multicast.Delivered) {
			joinerLog = append(joinerLog, d.Payload)
			joinerIDs = append(joinerIDs, d.ID)
		})
		for _, m := range g.members {
			m.Rewire(newView)
		}
	})
	// Post-join traffic, including from the joiner itself.
	g.k.At(120*time.Millisecond, func() {
		g.members[4].Multicast("post-a", 8)
		joiner.Multicast("post-j", 8)
	})
	g.k.At(140*time.Millisecond, func() { g.members[1].Multicast("post-b", 8) })
	g.k.Run()

	// Veterans see everything: 5 pre + 3 post.
	g.assertAllDelivered(t, 8)
	g.assertPerOriginFIFO(t)
	// The joiner sees all post-join traffic (it may also catch late
	// pre-join floods, but never out of per-origin order).
	want := map[any]bool{"post-a": true, "post-j": true, "post-b": true}
	for _, p := range joinerLog {
		delete(want, p)
	}
	if len(want) != 0 {
		t.Fatalf("joiner missed post-join messages %v; log=%v", want, joinerLog)
	}
	last := map[vclock.ProcessID]uint64{}
	for _, id := range joinerIDs {
		if id.Seq <= last[id.Sender] {
			t.Fatalf("joiner: origin %d delivered seq %d after %d", id.Sender, id.Seq, last[id.Sender])
		}
		last[id.Sender] = id.Seq
	}
	if joiner.PendingCount() != 0 {
		t.Fatalf("joiner retains %d pending messages", joiner.PendingCount())
	}
}

func TestLeaveMidStream(t *testing.T) {
	g := newTestGroup(t, 8, 23, transport.LinkConfig{BaseDelay: time.Millisecond}, Config{Group: "g"})
	g.k.At(0, func() { g.members[2].Multicast("before", 8) })
	newView := []transport.NodeID{0, 1, 3, 4, 5, 6, 7} // node 2 departs
	g.k.At(50*time.Millisecond, func() {
		for _, m := range g.members {
			m.Rewire(newView)
		}
	})
	g.k.At(100*time.Millisecond, func() {
		g.members[0].Multicast("after", 8)
		// The departed member is closed; its multicast is a no-op.
		if id := g.members[2].Multicast("ghost", 8); id != (multicast.MsgID{}) {
			t.Fatalf("departed member still multicasting: %v", id)
		}
	})
	g.k.Run()
	for r, d := range g.deliveries {
		if r == 2 {
			continue
		}
		if len(d) != 2 || d[0] != "before" || d[1] != "after" {
			t.Fatalf("member %d delivered %v, want [before after]", r, d)
		}
	}
}

func TestForwardingCensus(t *testing.T) {
	// In a group big enough to not be a clique, delivery requires
	// relaying: the transport must attribute forwarded copies.
	g := newTestGroup(t, 16, 29, transport.LinkConfig{BaseDelay: time.Millisecond}, Config{Group: "g"})
	g.members[0].Multicast("x", 8)
	g.k.Run()
	g.assertAllDelivered(t, 1)
	if g.net.Stats().Forwarded == 0 {
		t.Fatal("no forwarded packets recorded for a 16-node flood")
	}
	if ns := g.net.NodeStats(0); ns.Forwarded != 0 {
		t.Fatalf("origin's own sends misattributed as forwards: %+v", ns)
	}
	total := uint64(0)
	for _, m := range g.members {
		total += m.ForwardedMsgs.Value()
	}
	if total != g.net.Stats().Forwarded {
		t.Fatalf("member census %d != transport census %d", total, g.net.Stats().Forwarded)
	}
}
