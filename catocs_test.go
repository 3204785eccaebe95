package catocs

import (
	"sync"
	"testing"
	"time"
)

func TestFacadeSimulationQuickstart(t *testing.T) {
	sim := NewSimulation(42, LinkConfig{BaseDelay: 2 * time.Millisecond})
	nodes := []NodeID{0, 1, 2}
	var mu sync.Mutex
	got := map[ProcessID][]any{}
	members := NewGroup(sim.Mux, nodes, GroupConfig{Group: "demo", Ordering: Causal},
		func(rank ProcessID) DeliverFunc {
			return func(d Delivered) {
				mu.Lock()
				got[rank] = append(got[rank], d.Payload)
				mu.Unlock()
			}
		})
	members[0].Multicast("hello", 5)
	sim.Run()
	for r := ProcessID(0); r < 3; r++ {
		if len(got[r]) != 1 || got[r][0] != "hello" {
			t.Fatalf("rank %d got %v", r, got[r])
		}
	}
}

func TestFacadeStateToolkit(t *testing.T) {
	s := NewStore()
	v := s.Put("x", 1)
	if v.Seq != 1 {
		t.Fatal("store version")
	}
	r := NewReorderer()
	if out := r.Submit(1, "a"); len(out) != 1 {
		t.Fatal("reorderer")
	}
	c := NewCache()
	if n := c.Apply(CacheUpdate{Object: "o", Version: 1, Value: 1}); n != 1 {
		t.Fatal("cache")
	}
	if NewVC(3).Len() != 3 {
		t.Fatal("vc")
	}
}

func TestFacadeMonitorViewChange(t *testing.T) {
	sim := NewSimulation(7, LinkConfig{BaseDelay: time.Millisecond})
	nodes := []NodeID{0, 1, 2}
	members := NewGroup(sim.Mux, nodes, GroupConfig{Group: "g", Ordering: Causal, Atomic: true},
		func(ProcessID) DeliverFunc { return nil })
	monitors := make([]*Monitor, 3)
	for i, m := range members {
		monitors[i] = NewMonitor(sim.Mux, m, "g", MonitorConfig{})
		monitors[i].Start()
	}
	sim.Kernel.At(50*time.Millisecond, func() {
		sim.Net.Crash(2)
		monitors[2].Stop()
		members[2].Close()
	})
	sim.RunUntil(time.Second)
	if members[0].Epoch() != 1 || members[0].GroupSize() != 2 {
		t.Fatalf("view change failed: epoch=%d size=%d", members[0].Epoch(), members[0].GroupSize())
	}
	for i := range monitors {
		monitors[i].Stop()
		members[i].Close()
	}
}
