package stability

import (
	"math/rand"
	"testing"

	"catocs/internal/flowcontrol"
	"catocs/internal/vclock"
	"catocs/internal/wal"
)

func TestBufferAndEvict(t *testing.T) {
	tr := New(3)
	k := Key{Sender: 0, Seq: 1}
	tr.Buffer(k, "msg", 1)
	if got, ok := tr.Get(k); !ok || got != "msg" {
		t.Fatal("buffered message not retrievable")
	}
	if tr.Occupancy() != 1 {
		t.Fatalf("occupancy = %d", tr.Occupancy())
	}
	// Two of three rows: not stable.
	tr.ObserveAck(0, vclock.VC{1, 0, 0})
	tr.ObserveAck(1, vclock.VC{1, 0, 0})
	if tr.Occupancy() != 1 {
		t.Fatal("evicted before stability")
	}
	if ev := tr.ObserveAck(2, vclock.VC{1, 0, 0}); ev != 1 {
		t.Fatalf("evicted = %d, want 1", ev)
	}
	if tr.Occupancy() != 0 {
		t.Fatal("stable message not evicted")
	}
	if tr.Evicted() != 1 || tr.Buffered() != 1 {
		t.Fatalf("counters: evicted=%d buffered=%d", tr.Evicted(), tr.Buffered())
	}
}

func TestRebufferIsNoOp(t *testing.T) {
	tr := New(2)
	k := Key{Sender: 0, Seq: 1}
	tr.Buffer(k, "first", 1)
	tr.Buffer(k, "second", 1)
	if got, _ := tr.Get(k); got != "first" {
		t.Fatal("re-buffer replaced original")
	}
	if tr.Buffered() != 1 {
		t.Fatalf("buffered count = %d", tr.Buffered())
	}
}

func TestLateDuplicateOfStableMessageRejected(t *testing.T) {
	tr := New(2)
	k := Key{Sender: 0, Seq: 1}
	tr.ObserveAck(0, vclock.VC{1, 0})
	tr.ObserveAck(1, vclock.VC{1, 0})
	// Message is already stable; buffering a late duplicate must not
	// leave a zombie entry.
	tr.Buffer(k, "late dup", 1)
	if tr.Occupancy() != 0 {
		t.Fatal("stable message re-entered the buffer")
	}
}

func TestStableQuery(t *testing.T) {
	tr := New(2)
	if tr.Stable(Key{Sender: 0, Seq: 1}) {
		t.Fatal("nothing should be stable initially")
	}
	tr.ObserveAck(0, vclock.VC{2, 0})
	tr.ObserveAck(1, vclock.VC{1, 0})
	if !tr.Stable(Key{Sender: 0, Seq: 1}) {
		t.Fatal("seq 1 should be stable (min row = 1)")
	}
	if tr.Stable(Key{Sender: 0, Seq: 2}) {
		t.Fatal("seq 2 not yet stable")
	}
}

func TestHighWater(t *testing.T) {
	tr := New(2)
	for i := uint64(1); i <= 5; i++ {
		tr.Buffer(Key{Sender: 0, Seq: i}, i, 1)
	}
	tr.ObserveAck(0, vclock.VC{5, 0})
	tr.ObserveAck(1, vclock.VC{5, 0})
	if tr.Occupancy() != 0 {
		t.Fatal("not drained")
	}
	if tr.HighWater() != 5 {
		t.Fatalf("high water = %d, want 5", tr.HighWater())
	}
}

func TestKeys(t *testing.T) {
	tr := New(2)
	tr.Buffer(Key{0, 1}, "a", 1)
	tr.Buffer(Key{1, 3}, "b", 1)
	keys := tr.Keys()
	if len(keys) != 2 {
		t.Fatalf("keys = %v", keys)
	}
}

func TestResize(t *testing.T) {
	tr := New(2)
	tr.Buffer(Key{0, 1}, "a", 1)
	tr.Resize(4)
	if tr.Occupancy() != 0 {
		t.Fatal("resize must clear the buffer")
	}
	if tr.MinClock().Len() != 4 {
		t.Fatalf("min clock length = %d", tr.MinClock().Len())
	}
}

func TestEvictionNeverLosesUnstable(t *testing.T) {
	// Property: after random ack sequences, every buffered message whose
	// seq exceeds the min-row for its sender is still present.
	r := rand.New(rand.NewSource(1))
	tr := New(4)
	live := make(map[Key]bool)
	for i := 0; i < 300; i++ {
		if r.Intn(2) == 0 {
			k := Key{Sender: vclock.ProcessID(r.Intn(4)), Seq: uint64(1 + r.Intn(20))}
			if !tr.Stable(k) {
				tr.Buffer(k, i, 1)
				live[k] = true
			}
		} else {
			v := vclock.New(4)
			for j := range v {
				v[j] = uint64(r.Intn(20))
			}
			tr.ObserveAck(vclock.ProcessID(r.Intn(4)), v)
		}
		min := tr.MinClock()
		for k := range live {
			if k.Seq <= min[k.Sender] {
				delete(live, k) // legitimately evicted
				continue
			}
			if _, ok := tr.Get(k); !ok {
				t.Fatalf("unstable message %v evicted (min=%v)", k, min)
			}
		}
	}
}

func TestByteAccounting(t *testing.T) {
	tr := New(2)
	tr.Buffer(Key{0, 1}, "a", 100)
	tr.Buffer(Key{0, 2}, "b", 50)
	if tr.OccupancyBytes() != 150 {
		t.Fatalf("bytes = %d, want 150", tr.OccupancyBytes())
	}
	tr.ObserveAck(0, vclock.VC{1, 0})
	tr.ObserveAck(1, vclock.VC{1, 0})
	if tr.OccupancyBytes() != 50 {
		t.Fatalf("bytes after eviction = %d, want 50", tr.OccupancyBytes())
	}
	if tr.BytesHighWater() != 150 {
		t.Fatalf("bytes high water = %d, want 150", tr.BytesHighWater())
	}
}

func TestSpillOverflow(t *testing.T) {
	tr := New(2)
	tr.SetBudget(flowcontrol.Budget{MaxMsgs: 2})
	tr.SetSpill(wal.NewSpillStore(nil))
	for i := uint64(1); i <= 5; i++ {
		tr.Buffer(Key{Sender: 0, Seq: i}, i, 10)
	}
	if tr.Occupancy() != 2 {
		t.Fatalf("memory occupancy = %d, want budget 2", tr.Occupancy())
	}
	if tr.Spilled() != 3 || tr.Spill().Len() != 3 {
		t.Fatalf("spilled = %d, store len = %d, want 3", tr.Spilled(), tr.Spill().Len())
	}
	if tr.Unstable() != 5 {
		t.Fatalf("unstable = %d, want 5", tr.Unstable())
	}
	// Spilled messages remain reachable for NACK retransmission, and
	// the reload is counted.
	if got, ok := tr.Get(Key{Sender: 0, Seq: 5}); !ok || got != uint64(5) {
		t.Fatalf("spilled message not reachable: %v %v", got, ok)
	}
	if tr.Spill().Reloads() != 1 {
		t.Fatalf("reloads = %d, want 1", tr.Spill().Reloads())
	}
	// Stabilizing everything drops memory AND spilled entries.
	tr.ObserveAck(0, vclock.VC{5, 0})
	tr.ObserveAck(1, vclock.VC{5, 0})
	if tr.Occupancy() != 0 || tr.Spill().Len() != 0 || tr.Unstable() != 0 {
		t.Fatalf("not drained: mem=%d spill=%d", tr.Occupancy(), tr.Spill().Len())
	}
	// Gauges decremented on every removal path: high water is the
	// budget, not the total offered.
	if tr.HighWater() != 2 {
		t.Fatalf("high water = %d, want 2 (budget)", tr.HighWater())
	}
}

func TestSpillDuplicateIsNoOp(t *testing.T) {
	tr := New(2)
	tr.SetBudget(flowcontrol.Budget{MaxMsgs: 1})
	tr.SetSpill(wal.NewSpillStore(nil))
	tr.Buffer(Key{0, 1}, "in-mem", 1)
	tr.Buffer(Key{0, 2}, "spilled", 1)
	tr.Buffer(Key{0, 2}, "dup", 1)
	if tr.Spill().Len() != 1 || tr.Unstable() != 2 {
		t.Fatalf("duplicate re-spilled: len=%d unstable=%d", tr.Spill().Len(), tr.Unstable())
	}
}

func TestRemoveDecrementsGauges(t *testing.T) {
	tr := New(2)
	tr.Buffer(Key{0, 1}, "a", 10)
	tr.Buffer(Key{0, 2}, "b", 10)
	if !tr.Remove(Key{0, 1}) {
		t.Fatal("Remove missed a buffered key")
	}
	if tr.Occupancy() != 1 || tr.OccupancyBytes() != 10 {
		t.Fatalf("after remove: occ=%d bytes=%d", tr.Occupancy(), tr.OccupancyBytes())
	}
	if tr.Remove(Key{0, 1}) {
		t.Fatal("Remove reported success twice")
	}
	// Removal also reaches spilled entries.
	tr.SetBudget(flowcontrol.Budget{MaxMsgs: 1})
	tr.SetSpill(wal.NewSpillStore(nil))
	tr.Buffer(Key{1, 1}, "c", 10) // over budget -> spilled
	if !tr.Remove(Key{1, 1}) || tr.Spill().Len() != 0 {
		t.Fatal("Remove did not drop the spilled entry")
	}
}

func TestPerSender(t *testing.T) {
	tr := New(3)
	tr.Buffer(Key{0, 1}, "a", 1)
	tr.Buffer(Key{0, 2}, "b", 1)
	tr.Buffer(Key{1, 1}, "c", 1)
	if tr.PerSender(0) != 2 || tr.PerSender(1) != 1 || tr.PerSender(2) != 0 {
		t.Fatalf("per-sender = %d/%d/%d", tr.PerSender(0), tr.PerSender(1), tr.PerSender(2))
	}
	tr.ObserveAck(0, vclock.VC{2, 1, 0})
	tr.ObserveAck(1, vclock.VC{2, 1, 0})
	tr.ObserveAck(2, vclock.VC{1, 1, 0})
	if tr.PerSender(0) != 1 || tr.PerSender(1) != 0 {
		t.Fatalf("per-sender after partial stability = %d/%d", tr.PerSender(0), tr.PerSender(1))
	}
}

func TestLaggard(t *testing.T) {
	tr := New(3)
	// Ranks 0 and 1 have delivered everything; rank 2 trails.
	tr.ObserveAck(0, vclock.VC{5, 5, 0})
	tr.ObserveAck(1, vclock.VC{5, 5, 0})
	tr.ObserveAck(2, vclock.VC{1, 0, 0})
	lag, waits, ok := tr.Laggard(0)
	if !ok || lag != 2 {
		t.Fatalf("laggard = %v, %v, want rank 2", lag, ok)
	}
	// Rank 2 trails sender 1 by 5 and sender 0 by 4: the message it
	// holds back is sender 1's first, the one it has not acknowledged.
	if want := (Key{Sender: 1, Seq: 1}); waits != want {
		t.Fatalf("laggard waits for %+v, want %+v", waits, want)
	}
	// Excluding the true laggard still names the next-worst row only
	// if it actually lags; here rank 1 matches the frontier max.
	if lag, _, ok := tr.Laggard(2); ok && lag == 2 {
		t.Fatalf("excluded rank returned: %v", lag)
	}
	// No lag at all: nothing to excise.
	fresh := New(2)
	if _, _, ok := fresh.Laggard(0); ok {
		t.Fatal("fresh tracker reported a laggard")
	}
}

func TestOverflowing(t *testing.T) {
	tr := New(2)
	tr.SetBudget(flowcontrol.Budget{MaxMsgs: 2})
	tr.Buffer(Key{0, 1}, "a", 1)
	tr.Buffer(Key{0, 2}, "b", 1)
	if tr.Overflowing() {
		t.Fatal("at-budget tracker reports overflow")
	}
	// No spill store: the budget is advisory and the buffer exceeds it.
	tr.Buffer(Key{0, 3}, "c", 1)
	if !tr.Overflowing() {
		t.Fatal("over-budget tracker does not report overflow")
	}
}
