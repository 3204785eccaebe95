package multicast

import (
	"fmt"
	"testing"
	"time"

	"catocs/internal/sim"
	"catocs/internal/transport"
)

// These tests pin the ack-batching safety property: ack suppression
// (a member skips an ack round when its advertised clock has not
// moved) must never wedge stability. Crash and partition episodes are
// exactly the schedules where the last advertised clock goes stale —
// after healing, the suppressed rounds must resume until every
// unstable buffer drains. They run under -race in `make verify` (the
// race target covers ./...).

func runCrashPartitionSchedule(t *testing.T, g *testGroup) int {
	t.Helper()
	cast := func(s, i int) { g.members[s].Multicast(fmt.Sprintf("s%d-%d", s, i), 8) }
	total := 0
	for i := 0; i < 5; i++ {
		cast(i%4, i)
		total++
	}
	g.k.RunUntil(50 * time.Millisecond)

	g.net.Crash(3)
	for i := 5; i < 10; i++ { // node 3 misses these
		cast(i%3, i)
		total++
	}
	g.k.RunUntil(200 * time.Millisecond)
	g.net.Recover(3)
	g.k.RunUntil(800 * time.Millisecond)

	g.net.Partition([]transport.NodeID{0, 1}, []transport.NodeID{2, 3})
	for i := 10; i < 14; i++ { // casts cross the cut only after healing
		cast(i%2, i)
		total++
	}
	g.k.RunUntil(1200 * time.Millisecond)
	g.net.Heal()
	g.k.RunUntil(10 * time.Second)
	return total
}

func assertStabilityDrained(t *testing.T, g *testGroup, want int) {
	t.Helper()
	g.assertAllDelivered(t, want)
	for r, m := range g.members {
		if u := m.Stability().Unstable(); u != 0 {
			t.Fatalf("member %d still holds %d unstable messages after heal + quiescence", r, u)
		}
		if m.Stability().HighWater() == 0 {
			t.Fatalf("member %d never buffered anything; schedule is vacuous", r)
		}
	}
	g.close()
}

func TestBatchedAcksDrainStabilityCausalDelta(t *testing.T) {
	g := newTestGroup(t, 4, 11, transport.LinkConfig{BaseDelay: time.Millisecond, Jitter: 2 * time.Millisecond},
		Config{Group: "g", Ordering: Causal, Atomic: true,
			AckInterval: 10 * time.Millisecond, NackDelay: 10 * time.Millisecond})
	want := runCrashPartitionSchedule(t, g)
	assertStabilityDrained(t, g, want)
}

func TestBatchedAcksDrainStabilityTotalSeqBatched(t *testing.T) {
	g := newTestGroup(t, 4, 12, transport.LinkConfig{BaseDelay: time.Millisecond, Jitter: 2 * time.Millisecond},
		Config{Group: "g", Ordering: TotalSeq, Atomic: true,
			AckInterval: 10 * time.Millisecond, NackDelay: 10 * time.Millisecond})
	// Fill one order run in a single instant, so the schedule below
	// starts behind a size flush as well as queued flushes: the
	// sequencer's own casts loop back with no delay.
	g.net.SetLink(0, 0, transport.LinkConfig{})
	for i := 0; i < orderRunMax; i++ {
		g.members[0].Multicast(fmt.Sprintf("burst-%d", i), 8)
	}
	want := orderRunMax + runCrashPartitionSchedule(t, g)
	assertStabilityDrained(t, g, want)
}

// orderRunTap wraps a SimNet and records, for the sequencer (rank 0),
// the virtual instant of every data arrival and of every ordering run
// it sends.
type orderRunTap struct {
	*transport.SimNet
	arrivals []time.Duration
	runs     []orderRunSend
}

type orderRunSend struct {
	at  time.Duration
	to  transport.NodeID
	ids int
}

func (tp *orderRunTap) Register(id transport.NodeID, h transport.Handler) {
	if id != 0 {
		tp.SimNet.Register(id, h)
		return
	}
	tp.SimNet.Register(id, func(from transport.NodeID, payload any) {
		if _, ok := payload.(*DataMsg); ok {
			tp.arrivals = append(tp.arrivals, tp.Now())
		}
		h(from, payload)
	})
}

func (tp *orderRunTap) Send(from, to transport.NodeID, payload any) {
	if ob, ok := payload.(*OrderBatchMsg); ok && from == 0 {
		tp.runs = append(tp.runs, orderRunSend{at: tp.Now(), to: to, ids: len(ob.IDs)})
	}
	tp.SimNet.Send(from, to, payload)
}

// newOrderRunTap builds an atomic group of three on a 1 ms fixed-delay
// SimNet behind a tap; rank 0 is the sequencer.
func newOrderRunTap(t *testing.T, ord Ordering) (*orderRunTap, []*Member) {
	t.Helper()
	k := sim.NewKernel(1)
	k.SetEventLimit(1_000_000)
	tp := &orderRunTap{SimNet: transport.NewSimNet(k, transport.LinkConfig{BaseDelay: time.Millisecond})}
	nodes := []transport.NodeID{0, 1, 2}
	return tp, NewGroup(tp, nodes, Config{Group: "g", Ordering: ord, Atomic: true}, nil)
}

// TestOrderRunFlushContract pins when the sequencer announces: a run
// leaves when it holds orderRunMax assignments, or when the flush task
// it queued behind the dispatcher's pending work comes up — never on a
// timer.
func TestOrderRunFlushContract(t *testing.T) {
	for _, ord := range []Ordering{TotalSeq, TotalCausal} {
		t.Run(ord.String(), func(t *testing.T) {
			t.Run("lone arrival flushes at its own instant", func(t *testing.T) {
				tp, members := newOrderRunTap(t, ord)
				members[1].Multicast("solo", 8)
				tp.Kernel().RunUntil(50 * time.Millisecond)
				if len(tp.arrivals) != 1 {
					t.Fatalf("sequencer saw %d data arrivals, want 1", len(tp.arrivals))
				}
				if len(tp.runs) != 2 {
					t.Fatalf("sequencer sent %d runs, want one to each of 2 peers: %+v", len(tp.runs), tp.runs)
				}
				for _, r := range tp.runs {
					if r.at != tp.arrivals[0] || r.ids != 1 {
						t.Fatalf("run %+v, want 1 id at the arrival instant %v", r, tp.arrivals[0])
					}
				}
			})
			t.Run("same-instant arrivals fill runs", func(t *testing.T) {
				const k = 5
				tp, members := newOrderRunTap(t, ord)
				for i := 0; i < orderRunMax+k; i++ {
					members[1].Multicast(fmt.Sprintf("m%d", i), 8)
				}
				tp.Kernel().RunUntil(50 * time.Millisecond)
				if len(tp.arrivals) != orderRunMax+k {
					t.Fatalf("sequencer saw %d data arrivals, want %d", len(tp.arrivals), orderRunMax+k)
				}
				sizes := map[transport.NodeID][]int{}
				for _, r := range tp.runs {
					if r.at != tp.arrivals[0] {
						t.Fatalf("run %+v left after the arrival instant %v", r, tp.arrivals[0])
					}
					sizes[r.to] = append(sizes[r.to], r.ids)
				}
				want := fmt.Sprint([]int{orderRunMax, k})
				for _, to := range []transport.NodeID{1, 2} {
					if got := fmt.Sprint(sizes[to]); got != want {
						t.Fatalf("runs to %d have sizes %s, want %s", to, got, want)
					}
				}
			})
		})
	}
}
