package multicast

import (
	"fmt"
	"testing"
	"time"

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
	// starts behind a size flush as well as timer flushes: the
	// sequencer's own casts loop back with no delay and are all assigned
	// before the flush timer can fire.
	g.net.SetLink(0, 0, transport.LinkConfig{})
	for i := 0; i < orderRunMax; i++ {
		g.members[0].Multicast(fmt.Sprintf("burst-%d", i), 8)
	}
	g.k.RunUntil(orderFlushDelay / 2)
	if sent := g.members[0].CtrlMsgs.Value(); sent != uint64(len(g.members)-1) {
		t.Fatalf("sequencer sent %d control messages before the flush timer, want one full run to each peer", sent)
	}
	want := orderRunMax + runCrashPartitionSchedule(t, g)
	assertStabilityDrained(t, g, want)
}
