package obs_test

import (
	"strings"
	"testing"
	"time"

	"catocs/internal/multicast"
	"catocs/internal/obs"
	"catocs/internal/sim"
	"catocs/internal/transport"
	"catocs/internal/vclock"
)

// TestStabilizeNeverPrecedesDeliver runs an atomic CBCAST group with
// the full trace stack attached (members, stability trackers, and the
// transport) and checks the lifecycle invariant the tracer must
// witness: a message becomes stable at a node only after every
// delivery of that message anywhere in the group — stability means
// known-delivered-everywhere, so no stabilize event may precede a
// deliver event it covers.
func TestStabilizeNeverPrecedesDeliver(t *testing.T) {
	const n = 4
	k := sim.NewKernel(7)
	net := transport.NewSimNet(k, transport.LinkConfig{
		BaseDelay: 2 * time.Millisecond,
		Jitter:    1 * time.Millisecond,
	})
	tracer := obs.NewTracer()
	net.Instrument(tracer, nil, "cbcast")
	nodes := make([]transport.NodeID, n)
	for i := range nodes {
		nodes[i] = transport.NodeID(i)
	}
	members := multicast.NewGroup(net, nodes,
		multicast.Config{
			Group:       "interop",
			Ordering:    multicast.Causal,
			Atomic:      true,
			AckInterval: 10 * time.Millisecond,
			Tracer:      tracer,
		},
		func(rank vclock.ProcessID) multicast.DeliverFunc { return nil })
	for s := 0; s < n; s++ {
		s := s
		for i := 0; i < 5; i++ {
			i := i
			k.At(time.Duration(i*5)*time.Millisecond+time.Duration(s)*time.Millisecond, func() {
				members[s].Multicast(i, 16)
			})
		}
	}
	k.RunUntil(2 * time.Second)
	for _, m := range members {
		m.Close()
	}

	events := tracer.Events()
	lastDeliver := make(map[obs.MsgRef]time.Duration)
	deliverNodes := make(map[obs.MsgRef]map[int]bool)
	for _, e := range events {
		if e.Kind == obs.KDeliver {
			if e.T > lastDeliver[e.Msg] {
				lastDeliver[e.Msg] = e.T
			}
			if deliverNodes[e.Msg] == nil {
				deliverNodes[e.Msg] = make(map[int]bool)
			}
			deliverNodes[e.Msg][e.Node] = true
		}
	}
	if len(lastDeliver) == 0 {
		t.Fatal("trace recorded no deliveries")
	}
	stabilized := 0
	for _, e := range events {
		if e.Kind != obs.KStabilize {
			continue
		}
		stabilized++
		last, delivered := lastDeliver[e.Msg]
		if !delivered {
			t.Fatalf("stabilize of %v at node %d with no recorded delivery", e.Msg, e.Node)
		}
		if e.T < last {
			t.Errorf("stabilize of %v at node %d at %v precedes its last delivery at %v",
				e.Msg, e.Node, e.T, last)
		}
		if got := len(deliverNodes[e.Msg]); got != n {
			t.Errorf("stabilized %v delivered at %d/%d nodes", e.Msg, got, n)
		}
		if !strings.Contains(e.Ctx, "frontier=") {
			t.Errorf("stabilize ctx %q missing stability frontier", e.Ctx)
		}
	}
	if stabilized == 0 {
		t.Fatal("trace recorded no stabilizations (stability tracker not instrumented?)")
	}
}
