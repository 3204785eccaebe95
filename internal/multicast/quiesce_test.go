package multicast

import (
	"fmt"
	"testing"
	"time"

	"catocs/internal/sim"
	"catocs/internal/transport"
	"catocs/internal/vclock"
)

// ackLog records the instant of every ack a member sends. fireAck
// builds one AckMsg and hands it to the network once per peer, back to
// back, so a new pointer is a new ack.
type ackLog struct {
	transport.Network
	acks []time.Duration
	prev *AckMsg
}

func (a *ackLog) Send(from, to transport.NodeID, payload any) {
	if m, ok := payload.(*AckMsg); ok && m != a.prev {
		a.acks = append(a.acks, a.Now())
		a.prev = m
	}
	a.Network.Send(from, to, payload)
}

// quiesceEventLimit bounds the worlds that run until they fall silent,
// here and in missWorld; the largest goes silent in under a fifth of
// it. A group whose settled members keep re-advertising to each other
// crosses it instead of returning.
const quiesceEventLimit = 200_000

// TestAtomicGroupQuiesces runs every atomic ordering on a lossy,
// duplicating, reordering link until the kernel has nothing left to
// fire. A settled group must go silent: Kernel.Run returns, every
// member ends with nothing unstable and nothing held back, and once the
// last delivery has happened the group sends at most N·(N−1) acks (each
// one AckMsg to every peer) — the acks of clocks that moved for the last
// time, of members still waiting for a row, and settled members'
// answers to them.
func TestAtomicGroupQuiesces(t *testing.T) {
	link := transport.LinkConfig{BaseDelay: time.Millisecond, Jitter: 4 * time.Millisecond, LossProb: 0.02, DupProb: 0.02}
	const per = 25
	for _, ord := range []Ordering{FIFO, Causal, TotalSeq, TotalCausal} {
		for _, n := range []int{3, 8, 32} {
			t.Run(fmt.Sprintf("%v/n%d", ord, n), func(t *testing.T) {
				t.Parallel()
				k := sim.NewKernel(int64(10*n) + int64(ord))
				k.SetEventLimit(quiesceEventLimit)
				net := &ackLog{Network: transport.NewSimNet(k, link)}
				nodes := make([]transport.NodeID, n)
				for i := range nodes {
					nodes[i] = transport.NodeID(i)
				}
				delivered, last := 0, time.Duration(0)
				members := NewGroup(net, nodes, Config{Group: "q", Ordering: ord, Atomic: true}, func(vclock.ProcessID) DeliverFunc {
					return func(d Delivered) { delivered, last = delivered+1, d.At }
				})
				writers := min(n, 4)
				for w := range writers {
					r := w * n / writers
					for i := range per {
						k.At(time.Duration(i)*time.Millisecond+time.Duration(w)*100*time.Microsecond, func() {
							members[r].Multicast([2]int{r, i}, 32)
						})
					}
				}
				k.Run()
				if want := n * writers * per; delivered != want {
					t.Fatalf("%d deliveries, want %d", delivered, want)
				}
				for r, m := range members {
					if u := m.Stability().Unstable(); u != 0 || m.PendingCount() != 0 {
						t.Fatalf("rank %d went quiet with %d unstable and %d held back", r, u, m.PendingCount())
					}
				}
				after := 0
				for _, at := range net.acks {
					if at > last {
						after++
					}
				}
				if after > n*(n-1) {
					t.Fatalf("%d acks after the last delivery at %v, more than the %d ordered pairs", after, last, n*(n-1))
				}
				t.Logf("silent at %v after %d events; %d of %d acks after the last delivery at %v", k.Now(), k.Fired(), after, len(net.acks), last)
			})
		}
	}
}

// TestOwnCastLostEverywhereQuiesces cuts every outbound link of a
// sender, its loopback included, for the first 200 ms, and has it cast
// at once: the only copy left is in its own stability buffer. A peer's
// ack then shows the sender its own gap while it is still cut off, so
// its NACKs fail and rotate on to peers that never had the cast. The
// rotation must come back to the sender itself: the cast is delivered
// everywhere and the group falls silent, rather than the sender
// requesting it from the others forever.
func TestOwnCastLostEverywhereQuiesces(t *testing.T) {
	const n, sender = 4, 3
	link := transport.LinkConfig{BaseDelay: time.Millisecond}
	g := newTestGroup(t, n, 5, link, Config{Group: "o", Ordering: Causal, Atomic: true})
	g.k.SetEventLimit(quiesceEventLimit)
	setOutbound := func(cfg transport.LinkConfig) {
		for to := range n {
			g.net.SetLink(sender, transport.NodeID(to), cfg)
		}
	}
	g.k.At(0, func() {
		setOutbound(transport.LinkConfig{BaseDelay: time.Millisecond, LossProb: 1})
		g.members[sender].Multicast("orphan", 8)
	})
	g.k.At(5*time.Millisecond, func() { g.members[0].Multicast("prompt", 8) })
	g.k.At(200*time.Millisecond, func() { setOutbound(link) })
	g.k.Run()
	g.assertAllDelivered(t, 2)
	if u := g.members[sender].Stability().Unstable(); u != 0 {
		t.Fatalf("the sender went quiet with %d unstable", u)
	}
}
