package tcpnet_test

import (
	"sync"
	"testing"
	"time"

	"catocs/internal/multicast"
	"catocs/internal/transport"
	"catocs/internal/transport/tcpnet"
	"catocs/internal/vclock"
)

// runGroupOverTCP stands up one ordered-multicast member per Net (three
// "processes" in one test binary, talking over real localhost sockets),
// has every member multicast k payloads, and returns each member's
// delivery sequence. When reactive, one more round follows: member 0
// casts "m1" and member 1 casts "m2" from inside its delivery callback
// for m1, so m2 causally follows m1.
func runGroupOverTCP(t *testing.T, ordering multicast.Ordering, k int, reactive bool) [][]multicast.Delivered {
	t.Helper()
	const n = 3
	addrs := reserveAddrs(t, n)
	univ := map[transport.NodeID]string{}
	for i := 0; i < n; i++ {
		univ[transport.NodeID(i)] = addrs[i]
	}
	nodes := []transport.NodeID{0, 1, 2}

	nets := make([]*tcpnet.Net, n)
	for i := range nets {
		net, err := tcpnet.New(fastCfg(addrs[i], []transport.NodeID{transport.NodeID(i)}, univ))
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		nets[i] = net
	}

	var mu sync.Mutex
	orders := make([][]multicast.Delivered, n)
	members := make([]*multicast.Member, n)
	cfg := multicast.Config{Group: "tcp", Ordering: ordering, Atomic: true}
	for i := range members {
		rank := i
		members[i] = multicast.NewMember(nets[i], nodes, vclock.ProcessID(rank), cfg,
			func(d multicast.Delivered) {
				mu.Lock()
				orders[rank] = append(orders[rank], d)
				mu.Unlock()
				// The callback runs on this Net's dispatcher, so the
				// reaction needs no Inject.
				if reactive && rank == 1 && string(d.Payload.([]byte)) == "m1" {
					members[rank].Multicast([]byte("m2"), 2)
				}
			})
	}

	// All member interaction happens on each Net's dispatch goroutine.
	for round := 0; round < k; round++ {
		for i, m := range members {
			m := m
			nets[i].Inject(func() { m.Multicast([]byte{byte(round)}, 1) })
		}
		time.Sleep(time.Millisecond)
	}
	want := n * k
	if reactive {
		nets[0].Inject(func() { members[0].Multicast([]byte("m1"), 2) })
		want += 2
	}

	waitFor(t, 30*time.Second, "every member delivering every multicast", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, o := range orders {
			if len(o) != want {
				return false
			}
		}
		return true
	})
	mu.Lock()
	defer mu.Unlock()
	out := make([][]multicast.Delivered, n)
	for i := range orders {
		out[i] = append([]multicast.Delivered(nil), orders[i]...)
	}
	return out
}

// TestABcastGroupOverTCP runs the repo's atomic total-order multicast
// across three TCP-connected Nets: every member must deliver the same
// messages in the same order.
func TestABcastGroupOverTCP(t *testing.T) {
	const k = 15
	orders := runGroupOverTCP(t, multicast.TotalCausal, k, false)
	for i := 1; i < len(orders); i++ {
		if len(orders[i]) != len(orders[0]) {
			t.Fatalf("member %d delivered %d, member 0 delivered %d", i, len(orders[i]), len(orders[0]))
		}
		for j := range orders[0] {
			if orders[i][j].ID != orders[0][j].ID {
				t.Fatalf("total order diverges at %d: member %d saw %v, member 0 saw %v",
					j, i, orders[i][j].ID, orders[0][j].ID)
			}
		}
	}
}

// TestCBcastGroupOverTCP runs atomic CBCAST across TCP: every member
// must deliver every message with per-sender FIFO order intact, and
// the reactive round's m1 before m2 — happens-before across senders,
// with the reaction cast from inside a delivery callback on real
// sockets.
func TestCBcastGroupOverTCP(t *testing.T) {
	const k = 15
	orders := runGroupOverTCP(t, multicast.Causal, k, true)
	for i, order := range orders {
		at := map[string]int{}
		next := map[vclock.ProcessID]uint64{}
		for j, d := range order {
			at[string(d.Payload.([]byte))] = j
			id := d.ID
			want := next[id.Sender] + 1
			if id.Seq != want {
				t.Fatalf("member %d: sender %d seq %d delivered before seq %d",
					i, id.Sender, id.Seq, want)
			}
			next[id.Sender] = id.Seq
		}
		if at["m1"] >= at["m2"] {
			t.Fatalf("member %d delivered m2 at %d before its cause m1 at %d", i, at["m2"], at["m1"])
		}
	}
}
