package netharness

import (
	"path/filepath"
	"testing"
	"time"

	"catocs/internal/transport"
	"catocs/internal/wal"
)

// TestFleetWALRecovery is the real-TCP restart drill cmd/node's -wal
// flag scripts: a 3-node fleet ingests load through node 0, node 0
// goes down the SIGTERM path (chains checkpointed, replay set NOT
// retired), and a new process re-opens the same WAL and splices back
// into the group's sequence space. Survivors must absorb the replayed
// suffix as seq-level duplicates and the resumed chain must carry new
// traffic — a fresh-identity restart would instead wedge behind their
// FIFO gap check forever, which is exactly what this test pins down.
func TestFleetWALRecovery(t *testing.T) {
	for _, substrate := range []string{"cbcast", "abcast"} {
		t.Run(substrate, func(t *testing.T) {
			addrs := reserveAddrs(t, 4)
			nodes := map[transport.NodeID]string{0: addrs[0], 1: addrs[1], 2: addrs[2]}
			workers := map[transport.NodeID]string{100: addrs[3]}
			epoch := time.Now().UnixNano()
			walPath := filepath.Join(t.TempDir(), "node0.wal")

			start := func(id transport.NodeID, log *wal.MemberLog, rec wal.RecoveredMember) *FleetNode {
				t.Helper()
				f, err := StartFleetNode(NodeConfig{
					ID: id, Nodes: nodes, Workers: workers,
					Substrate: substrate, EpochNanos: epoch,
					Log: log, Recovered: rec,
				})
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
			load := func() *LoadResult {
				t.Helper()
				res, err := RunLoad(LoadConfig{
					Worker: 100, Listen: addrs[3], Ingress: 0,
					Addrs:   Merge(nodes, workers),
					Clients: 500, Rate: 300, MsgSize: 64,
					Duration: 800 * time.Millisecond, EpochNanos: epoch,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Done != res.Sent {
					t.Fatalf("done %d of %d sent", res.Done, res.Sent)
				}
				return res
			}

			n1 := start(1, nil, wal.RecoveredMember{})
			defer n1.Close()
			n2 := start(2, nil, wal.RecoveredMember{})
			defer n2.Close()

			flog, err := wal.OpenFileLog(walPath)
			if err != nil {
				t.Fatal(err)
			}
			mlog, rec, err := wal.OpenMemberLog(flog.Device())
			if err != nil {
				t.Fatal(err)
			}
			if rec.Records != 0 {
				t.Fatalf("fresh log recovered %d records", rec.Records)
			}
			n0 := start(0, mlog, rec)

			res1 := load()
			sent1 := res1.Sent
			// Survivors must hold the full prefix before the crash, so
			// nothing in phase 2 depends on in-flight pre-crash frames.
			settle(n1, sent1)
			settle(n2, sent1)

			// SIGTERM path: checkpoint the chains, leave the replay set.
			n0.Persist(false)
			n0.Close()
			if err := flog.Close(); err != nil {
				t.Fatal(err)
			}

			// Restart as the same identity.
			flog2, err := wal.OpenFileLog(walPath)
			if err != nil {
				t.Fatal(err)
			}
			defer flog2.Close()
			mlog2, rec2, err := wal.OpenMemberLog(flog2.Device())
			if err != nil {
				t.Fatal(err)
			}
			if uint64(len(rec2.Casts)) != sent1 {
				t.Fatalf("replay set %d casts, want the full unretired prefix %d", len(rec2.Casts), sent1)
			}
			if len(rec2.AckClock) != len(nodes) || rec2.AckClock[0] != sent1 {
				t.Fatalf("ack checkpoint %v, want own row %d over %d ranks", rec2.AckClock, sent1, len(nodes))
			}
			if inc, _ := mlog2.BumpIncarnation(); inc != 1 {
				t.Fatalf("incarnation %d after first recovery, want 1", inc)
			}
			n0b := start(0, mlog2, rec2)
			defer n0b.Close()

			// The resumed chain must carry fresh traffic end to end.
			res2 := load()

			snap0 := settle(n0b, res2.Sent)
			if snap0.Replayed != sent1 {
				t.Fatalf("replayed %d casts, want %d", snap0.Replayed, sent1)
			}
			if snap0.Inc != 1 {
				t.Fatalf("snapshot incarnation %d, want 1", snap0.Inc)
			}
			// The restart resumed its own delivered row at the checkpoint,
			// so its replays dedup locally: only phase 2 delivers here.
			if snap0.Delivered != res2.Sent {
				t.Fatalf("restarted node delivered %d, want %d", snap0.Delivered, res2.Sent)
			}
			// Survivors saw every replayed cast again under its original
			// sequence number and dropped each as a duplicate.
			for _, f := range []*FleetNode{n1, n2} {
				snap := settle(f, sent1+res2.Sent)
				if snap.Delivered != sent1+res2.Sent {
					t.Fatalf("node %d delivered %d, want %d (replays must dedup, new casts must deliver)",
						snap.ID, snap.Delivered, sent1+res2.Sent)
				}
			}
		})
	}
}
