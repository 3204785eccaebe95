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

// stamped is a fuzz payload carrying a ground-truth vector clock.
// Scalecast puts no clocks on the wire — that is its whole point — so
// the test computes happens-before itself: each member ticks its own
// component at send time and merges delivered stamps, exactly the
// bookkeeping CBCAST does in-protocol. Any delivery of a message
// before one of its causal predecessors then shows up as a stamp
// inversion.
type stamped struct {
	name string
	vc   vclock.VC
}

// TestFuzzFloodCausalInvariants ports the multicast fuzz harness to
// scalecast: randomized group size, traffic, loss, jitter, and
// partition schedules, asserting the invariants causal broadcast must
// keep —
//
//  1. no duplicates: each member delivers each message at most once;
//  2. per-origin FIFO (strictly increasing app-level seqs);
//  3. causal safety: no member delivers m before a message that
//     happens-before m;
//  4. completeness: after the partition heals, every member delivers
//     every message.
func TestFuzzFloodCausalInvariants(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := sim.NewKernel(seed).Rand() // independent param draws
		n := 2 + rng.Intn(7)
		msgs := 5 + rng.Intn(20)
		loss := rng.Float64() * 0.25
		jitter := time.Duration(rng.Intn(8)) * time.Millisecond

		k := sim.NewKernel(seed * 37)
		k.SetEventLimit(20_000_000)
		net := transport.NewSimNet(k, transport.LinkConfig{
			BaseDelay: time.Millisecond, Jitter: jitter, LossProb: loss,
		})
		nodes := make([]transport.NodeID, n)
		for i := range nodes {
			nodes[i] = transport.NodeID(i)
		}
		type rec struct {
			id multicast.MsgID
			vc vclock.VC
		}
		deliveries := make([][]rec, n)
		clocks := make([]vclock.VC, n) // test-side ground truth
		for i := range clocks {
			clocks[i] = vclock.New(n)
		}
		sent := 0
		var members []*Member
		members = NewGroup(net, nodes, Config{Group: "fuzz",
			AckInterval: 8 * time.Millisecond, NackDelay: 8 * time.Millisecond,
			Heartbeat: 16 * time.Millisecond},
			func(rank vclock.ProcessID) multicast.DeliverFunc {
				return func(d multicast.Delivered) {
					s := d.Payload.(stamped)
					clocks[rank] = clocks[rank].Merge(s.vc)
					deliveries[rank] = append(deliveries[rank], rec{id: d.ID, vc: s.vc})
					// React to base messages only, building single-hop
					// causal chains across origins.
					if s.name[0] == 'm' && int(d.ID.Seq)%n == int(rank) {
						clocks[rank].Tick(rank)
						members[rank].Multicast(stamped{
							name: fmt.Sprintf("react-%d-%v", rank, d.ID),
							vc:   clocks[rank].Clone(),
						}, 8)
						sent++
					}
				}
			})
		for i := 0; i < msgs; i++ {
			i := i
			s := rng.Intn(n)
			at := time.Duration(rng.Intn(msgs*4)) * time.Millisecond
			k.At(at, func() {
				clocks[s].Tick(vclock.ProcessID(s))
				members[s].Multicast(stamped{
					name: fmt.Sprintf("m%d", i),
					vc:   clocks[s].Clone(),
				}, 8)
				sent++
			})
		}
		// A partition splits the group mid-stream and heals before the
		// deadline; flooding must recover across the healed cut.
		if n >= 3 {
			cut := 1 + rng.Intn(n-1)
			healAt := time.Duration(msgs*2+rng.Intn(msgs)) * time.Millisecond
			k.At(time.Duration(rng.Intn(msgs))*time.Millisecond, func() {
				net.Partition(nodes[:cut], nodes[cut:])
			})
			k.At(healAt, func() { net.Heal() })
		}
		k.RunUntil(time.Duration(msgs*4)*time.Millisecond + 10*time.Second)
		for _, m := range members {
			m.Close()
		}

		for r := 0; r < n; r++ {
			// (1) no duplicates.
			seen := make(map[multicast.MsgID]bool)
			for _, d := range deliveries[r] {
				if seen[d.id] {
					t.Fatalf("seed %d: member %d delivered %v twice", seed, r, d.id)
				}
				seen[d.id] = true
			}
			// (2) per-origin FIFO.
			last := make(map[vclock.ProcessID]uint64)
			for _, d := range deliveries[r] {
				if d.id.Seq <= last[d.id.Sender] {
					t.Fatalf("seed %d: member %d FIFO violation at %v", seed, r, d.id)
				}
				last[d.id.Sender] = d.id.Seq
			}
			// (3) causal safety.
			for i := 0; i < len(deliveries[r]); i++ {
				for j := i + 1; j < len(deliveries[r]); j++ {
					a, b := deliveries[r][i], deliveries[r][j]
					if b.vc.HappensBefore(a.vc) {
						t.Fatalf("seed %d: member %d delivered %v before its causal predecessor %v",
							seed, r, a.id, b.id)
					}
				}
			}
			// (4) completeness after heal.
			if len(deliveries[r]) != sent {
				t.Fatalf("seed %d (n=%d loss=%.2f): member %d delivered %d of %d",
					seed, n, loss, r, len(deliveries[r]), sent)
			}
		}
	}
}

// TestFuzzJoinLeaveInvariants drives randomized view changes: members
// join mid-stream (JoinMember + Rewire) and leave again, with traffic
// flowing throughout. Veterans must keep all four invariants; joiners
// must deliver everything sent after their wiring-in settles, in causal
// order.
func TestFuzzJoinLeaveInvariants(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := sim.NewKernel(seed).Rand()
		n := 4 + rng.Intn(4) // initial size
		maxID := n + 1
		jitter := time.Duration(rng.Intn(4)) * time.Millisecond

		k := sim.NewKernel(seed * 41)
		k.SetEventLimit(20_000_000)
		net := transport.NewSimNet(k, transport.LinkConfig{
			BaseDelay: time.Millisecond, Jitter: jitter,
		})
		nodes := make([]transport.NodeID, n)
		for i := range nodes {
			nodes[i] = transport.NodeID(i)
		}
		type rec struct {
			id   multicast.MsgID
			vc   vclock.VC
			name string
		}
		deliveries := make(map[transport.NodeID][]rec)
		clocks := make(map[transport.NodeID]vclock.VC)
		alive := make(map[transport.NodeID]*Member)
		deliverFor := func(id transport.NodeID) multicast.DeliverFunc {
			return func(d multicast.Delivered) {
				s := d.Payload.(stamped)
				clocks[id] = clocks[id].Merge(s.vc)
				deliveries[id] = append(deliveries[id], rec{id: d.ID, vc: s.vc, name: s.name})
			}
		}
		for _, id := range nodes {
			clocks[id] = vclock.New(maxID)
		}
		members := NewGroup(net, nodes, Config{Group: "fuzz"},
			func(rank vclock.ProcessID) multicast.DeliverFunc {
				return deliverFor(nodes[rank])
			})
		for i, id := range nodes {
			alive[id] = members[i]
		}
		view := append([]transport.NodeID(nil), nodes...)

		joinID := transport.NodeID(n)
		var sentAfterJoin []string // names actually multicast post-join
		send := func(id transport.NodeID, name string) func() {
			return func() {
				m := alive[id]
				if m == nil {
					return
				}
				clocks[id].Tick(vclock.ProcessID(id))
				m.Multicast(stamped{name: name, vc: clocks[id].Clone()}, 8)
				if alive[joinID] != nil {
					sentAfterJoin = append(sentAfterJoin, name)
				}
			}
		}
		for i := 0; i < 12; i++ {
			k.At(time.Duration(i*4)*time.Millisecond, send(nodes[i%n], fmt.Sprintf("pre-%d", i)))
		}
		// Join node n at a random point.
		k.At(time.Duration(10+rng.Intn(20))*time.Millisecond, func() {
			view = append(view, joinID)
			clocks[joinID] = vclock.New(maxID)
			alive[joinID] = JoinMember(net, view, joinID, Config{Group: "fuzz"}, deliverFor(joinID))
			// Rewire survivors in a seed-derived order: deterministic per
			// seed, but diverse across seeds — rewire interleavings are
			// exactly where reconfiguration bugs hide.
			for _, i := range rng.Perm(len(view)) {
				if id := view[i]; id != joinID && alive[id] != nil {
					alive[id].Rewire(view)
				}
			}
		})
		// Post-join traffic from everyone, including the joiner.
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("post-%d", i)
			src := nodes[rng.Intn(n)]
			if i%3 == 0 {
				src = joinID
			}
			k.At(time.Duration(200+i*4)*time.Millisecond, send(src, name))
		}
		// A random veteran leaves after the joiner settles.
		leaver := nodes[rng.Intn(n)]
		k.At(400*time.Millisecond, func() {
			old := append([]transport.NodeID(nil), view...)
			next := view[:0]
			for _, id := range view {
				if id != leaver {
					next = append(next, id)
				}
			}
			view = next
			for _, i := range rng.Perm(len(old)) {
				if m := alive[old[i]]; m != nil {
					m.Rewire(view)
				}
			}
			delete(alive, leaver)
		})
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("final-%d", i)
			src := view[rng.Intn(len(view))]
			k.At(time.Duration(500+i*4)*time.Millisecond, func() {
				if alive[src] != nil {
					send(src, name)()
				}
			})
		}
		k.RunUntil(5 * time.Second)

		for id, recs := range deliveries {
			seen := make(map[multicast.MsgID]bool)
			last := make(map[vclock.ProcessID]uint64)
			for _, d := range recs {
				if seen[d.id] {
					t.Fatalf("seed %d: node %d delivered %v twice", seed, id, d.id)
				}
				seen[d.id] = true
				if d.id.Seq <= last[d.id.Sender] {
					t.Fatalf("seed %d: node %d FIFO violation at %v", seed, id, d.id)
				}
				last[d.id.Sender] = d.id.Seq
			}
			for i := 0; i < len(recs); i++ {
				for j := i + 1; j < len(recs); j++ {
					if recs[j].vc.HappensBefore(recs[i].vc) {
						t.Fatalf("seed %d: node %d causal violation: delivered %v before predecessor %v",
							seed, id, recs[i].id, recs[j].id)
					}
				}
			}
		}
		// The joiner must have delivered everything multicast after its
		// join (it may additionally catch late pre-join floods; never
		// required, never out of order).
		got := make(map[string]bool)
		for _, d := range deliveries[joinID] {
			got[d.name] = true
		}
		for _, name := range sentAfterJoin {
			if !got[name] {
				t.Fatalf("seed %d: joiner missed post-join message %q; delivered %d msgs",
					seed, name, len(deliveries[joinID]))
			}
		}
		// Surviving veterans must have delivered every message sent by a
		// live member, pre- and post-join alike.
		wantAll := 0
		for id := range alive {
			if id == joinID {
				continue
			}
			if wantAll == 0 {
				wantAll = len(deliveries[id])
			}
			if len(deliveries[id]) != wantAll {
				t.Fatalf("seed %d: veteran delivery counts disagree: node %d has %d, expected %d",
					seed, id, len(deliveries[id]), wantAll)
			}
		}
	}
}
