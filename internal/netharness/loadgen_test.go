package netharness

import (
	"net"
	"testing"
	"time"

	"catocs/internal/transport"
)

// reserveAddrs grabs n distinct localhost ports.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// settle polls f until it has delivered want casts or a deadline
// passes, and returns the last snapshot for the caller to assert on.
// RunLoad returns when the ingress node's last echo is back; the other
// members may still be up to one flush tick short of delivering it.
func settle(f *FleetNode, want uint64) NodeSnapshot {
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := f.Snapshot()
		if snap.Delivered == want || time.Now().After(deadline) {
			return snap
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFleetEndToEnd runs the full loop in one process: a 3-node
// ordered fleet over TCP, one loadgen worker publishing through the
// bus, echoes measured back. This is the E22 topology at unit-test
// scale.
func TestFleetEndToEnd(t *testing.T) {
	for _, substrate := range []string{"cbcast", "abcast"} {
		t.Run(substrate, func(t *testing.T) {
			addrs := reserveAddrs(t, 4)
			nodes := map[transport.NodeID]string{0: addrs[0], 1: addrs[1], 2: addrs[2]}
			workers := map[transport.NodeID]string{100: addrs[3]}
			epoch := time.Now().UnixNano()

			var fleet []*FleetNode
			for id := range nodes {
				f, err := StartFleetNode(NodeConfig{
					ID: id, Nodes: nodes, Workers: workers,
					Substrate: substrate, EpochNanos: epoch,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				fleet = append(fleet, f)
			}

			res, err := RunLoad(LoadConfig{
				Worker:     100,
				Listen:     addrs[3],
				Ingress:    0,
				Addrs:      Merge(nodes, workers),
				Clients:    5000,
				Rate:       400,
				MsgSize:    64,
				Duration:   1500 * time.Millisecond,
				EpochNanos: epoch,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Sent == 0 {
				t.Fatal("worker sent nothing")
			}
			// TCP on loopback with atomic-mode recovery: everything the
			// worker sent must come back.
			if res.Done != res.Sent {
				t.Fatalf("done %d of %d sent", res.Done, res.Sent)
			}
			if res.Hist.Count() != res.Done {
				t.Fatalf("hist count %d, done %d", res.Hist.Count(), res.Done)
			}
			if res.Hist.Quantile(0.5) <= 0 {
				t.Fatal("p50 latency is zero")
			}

			// Every fleet node must have delivered every multicast (the
			// ingress node's casts reach all members).
			for _, f := range fleet {
				snap := settle(f, res.Sent)
				if snap.Delivered != res.Sent {
					t.Fatalf("node %d delivered %d, want %d", snap.ID, snap.Delivered, res.Sent)
				}
				if snap.Substrate != substrate {
					t.Fatalf("snapshot substrate %q", snap.Substrate)
				}
			}
			t.Logf("%s: %d msgs, latency %v", substrate, res.Done, res.Hist)
		})
	}
}

// TestRunLoadValidation exercises the config guards.
func TestRunLoadValidation(t *testing.T) {
	bad := []LoadConfig{
		{Clients: 0, Rate: 1, Duration: time.Second},
		{Clients: 1, Rate: 0, Duration: time.Second},
		{Clients: 1, Rate: 1, Duration: 0},
	}
	for i, cfg := range bad {
		if _, err := RunLoad(cfg); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
}

// TestManyClientsCheap verifies the million-client claim's memory
// shape: clients are one uint64 each, so allocating them is instant.
func TestManyClientsCheap(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	nodes := map[transport.NodeID]string{0: addrs[0]}
	workers := map[transport.NodeID]string{100: addrs[1]}
	epoch := time.Now().UnixNano()
	f, err := StartFleetNode(NodeConfig{
		ID: 0, Nodes: nodes, Workers: workers,
		Substrate: "cbcast", EpochNanos: epoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	res, err := RunLoad(LoadConfig{
		Worker: 100, Listen: addrs[1], Ingress: 0,
		Addrs:   Merge(nodes, workers),
		Clients: 1_000_000, Rate: 500, MsgSize: 64,
		Duration: 500 * time.Millisecond, EpochNanos: epoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done == 0 {
		t.Fatal("no echoes with a million registered clients")
	}
}
