package causalgraph

import (
	"testing"

	"catocs/internal/vclock"
)

func TestChainArcs(t *testing.T) {
	// A chain m1 -> m2 -> m3 yields 3 arcs under transitive counting:
	// (1,2), (2,3), (1,3).
	g := New()
	g.Add(MsgID{Sender: 0, Seq: 1}, vclock.VC{1, 0, 0})
	g.Add(MsgID{Sender: 1, Seq: 1}, vclock.VC{1, 1, 0})
	g.Add(MsgID{Sender: 2, Seq: 1}, vclock.VC{1, 1, 1})
	nodes, arcs := g.Census()
	if nodes != 3 || arcs != 3 {
		t.Fatalf("census = (%d, %d), want (3, 3)", nodes, arcs)
	}
}

func TestConcurrentNoArcs(t *testing.T) {
	g := New()
	g.Add(MsgID{Sender: 0, Seq: 1}, vclock.VC{1, 0})
	g.Add(MsgID{Sender: 1, Seq: 1}, vclock.VC{0, 1})
	if _, arcs := g.Census(); arcs != 0 {
		t.Fatalf("concurrent messages produced %d arcs", arcs)
	}
}

func TestPrune(t *testing.T) {
	g := New()
	g.Add(MsgID{Sender: 0, Seq: 1}, vclock.VC{1, 0})
	g.Add(MsgID{Sender: 0, Seq: 2}, vclock.VC{2, 0})
	g.Add(MsgID{Sender: 1, Seq: 1}, vclock.VC{2, 1})
	if removed := g.Prune(vclock.VC{1, 0}); removed != 1 {
		t.Fatalf("pruned %d, want 1", removed)
	}
	nodes, _ := g.Census()
	if nodes != 2 {
		t.Fatalf("nodes after prune = %d", nodes)
	}
	if g.Added() != 3 || g.Pruned() != 1 {
		t.Fatalf("counters: added=%d pruned=%d", g.Added(), g.Pruned())
	}
}

func TestDuplicateAddIgnored(t *testing.T) {
	g := New()
	g.Add(MsgID{Sender: 0, Seq: 1}, vclock.VC{1, 0})
	g.Add(MsgID{Sender: 0, Seq: 1}, vclock.VC{9, 9})
	if g.Added() != 1 {
		t.Fatalf("added = %d", g.Added())
	}
}

func TestPeaks(t *testing.T) {
	g := New()
	g.Add(MsgID{Sender: 0, Seq: 1}, vclock.VC{1, 0})
	g.Add(MsgID{Sender: 0, Seq: 2}, vclock.VC{2, 0})
	g.Census()
	g.Prune(vclock.VC{2, 0})
	if g.PeakNodes() != 2 {
		t.Fatalf("peak nodes = %d", g.PeakNodes())
	}
	if g.PeakArcs() != 1 {
		t.Fatalf("peak arcs = %d", g.PeakArcs())
	}
	nodes, _ := g.Census()
	if nodes != 0 {
		t.Fatalf("nodes after full prune = %d", nodes)
	}
}

func TestStampIsolation(t *testing.T) {
	// The graph must clone stamps: caller mutation must not corrupt it.
	g := New()
	vc := vclock.VC{1, 0}
	g.Add(MsgID{Sender: 0, Seq: 1}, vc)
	vc.Set(0, 99)
	g.Add(MsgID{Sender: 0, Seq: 2}, vclock.VC{2, 0})
	_, arcs := g.Census()
	if arcs != 1 {
		t.Fatalf("arcs = %d; caller mutation leaked into graph", arcs)
	}
}

func TestQuadraticGrowthShape(t *testing.T) {
	// Sanity-check the §5 claim in miniature: a fully chained workload
	// of n messages has n(n-1)/2 arcs.
	for _, n := range []int{5, 10, 20} {
		g := New()
		vc := vclock.New(1)
		for i := 1; i <= n; i++ {
			vc.Tick(0)
			g.Add(MsgID{Sender: 0, Seq: uint64(i)}, vc)
		}
		_, arcs := g.Census()
		want := n * (n - 1) / 2
		if arcs != want {
			t.Fatalf("n=%d arcs=%d want %d", n, arcs, want)
		}
	}
}
