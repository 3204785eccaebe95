package group

import (
	"fmt"
	"testing"
	"time"

	"catocs/internal/multicast"
	"catocs/internal/sim"
	"catocs/internal/transport"
	"catocs/internal/vclock"
)

// TestVirtualSynchronyInvariantUnderChurn is the membership layer's
// contract test: across random traffic, loss, and a crash, every pair
// of members that both install a view must have delivered exactly the
// same set of messages while in the preceding view. (Delivery *order*
// may differ under causal ordering; the set may not.)
func TestVirtualSynchronyInvariantUnderChurn(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		k := sim.NewKernel(seed)
		k.SetEventLimit(20_000_000)
		net := transport.NewSimNet(k, transport.LinkConfig{
			BaseDelay: time.Millisecond,
			Jitter:    3 * time.Millisecond,
			LossProb:  0.05,
		})
		mux := transport.NewMux(net)
		const n = 4
		nodes := make([]transport.NodeID, n)
		for i := range nodes {
			nodes[i] = transport.NodeID(i)
		}
		// perEpoch[rank][epoch] = set of delivered message ids in that epoch.
		perEpoch := make([]map[uint64]map[string]bool, n)
		for i := range perEpoch {
			perEpoch[i] = map[uint64]map[string]bool{0: {}}
		}
		var members []*multicast.Member
		members = multicast.NewGroup(mux, nodes,
			multicast.Config{Group: "vs", Ordering: multicast.Causal, Atomic: true,
				AckInterval: 8 * time.Millisecond, NackDelay: 8 * time.Millisecond},
			func(rank vclock.ProcessID) multicast.DeliverFunc {
				return func(d multicast.Delivered) {
					m := members[rank]
					set, ok := perEpoch[rank][m.Epoch()]
					if !ok {
						set = map[string]bool{}
						perEpoch[rank][m.Epoch()] = set
					}
					set[d.Payload.(string)] = true
				}
			})
		monitors := make([]*Monitor, n)
		for i := range members {
			monitors[i] = NewMonitor(mux, members[i], "vs", Config{})
			monitors[i].Start()
		}
		// Traffic from every member throughout.
		for s := 0; s < n; s++ {
			for i := 0; i < 25; i++ {
				s, i := s, i
				k.At(time.Duration(i)*6*time.Millisecond, func() {
					members[s].Multicast(fmt.Sprintf("s%d-%d", s, i), 8)
				})
			}
		}
		// One crash mid-stream.
		victim := int(seed) % n
		k.At(70*time.Millisecond, func() {
			net.Crash(nodes[victim])
			monitors[victim].Stop()
			members[victim].Close()
		})
		k.RunUntil(5 * time.Second)
		for i := range monitors {
			monitors[i].Stop()
			members[i].Close()
		}

		// Survivors must have moved to epoch >= 1 and, for every epoch
		// that at least two survivors completed (i.e. an epoch they both
		// left by installing a later view OR both ended the run in),
		// their delivery sets for completed epochs must agree. The only
		// epoch all survivors completed here is epoch 0.
		var survivors []int
		for i := 0; i < n; i++ {
			if i == victim {
				continue
			}
			if members[i].Epoch() < 1 {
				t.Fatalf("seed %d: survivor %d never changed views", seed, i)
			}
			survivors = append(survivors, i)
		}
		base := perEpoch[survivors[0]][0]
		for _, s := range survivors[1:] {
			got := perEpoch[s][0]
			if len(got) != len(base) {
				t.Fatalf("seed %d: epoch-0 delivery sets differ in size: member %d has %d, member %d has %d",
					seed, survivors[0], len(base), s, len(got))
			}
			for id := range base {
				if !got[id] {
					t.Fatalf("seed %d: member %d missing %q from epoch 0", seed, s, id)
				}
			}
		}
		// Liveness: post-view traffic kept flowing — the survivors'
		// epoch-1 sets must contain messages, and (same invariant) agree
		// if the run ended with everyone still in epoch 1.
		allEpoch1 := true
		for _, s := range survivors {
			if members[s].Epoch() != 1 {
				allEpoch1 = false
			}
		}
		if allEpoch1 {
			base1 := perEpoch[survivors[0]][1]
			if len(base1) == 0 {
				t.Fatalf("seed %d: no epoch-1 deliveries at all", seed)
			}
			for _, s := range survivors[1:] {
				got := perEpoch[s][1]
				if len(got) != len(base1) {
					t.Fatalf("seed %d: epoch-1 sets differ: %d vs %d", seed, len(base1), len(got))
				}
			}
		}
	}
}
