package multicast

import (
	"math/rand"
	"testing"
	"time"

	"catocs/internal/transport"
	"catocs/internal/vclock"
	"catocs/internal/wire"
)

// FuzzDeltaVCCodec drives a randomized sender clock history through
// the delta encoding the wire uses: each cast's clock is diffed
// against the previous cast, shipped as either a full clock (refresh
// boundary) or a delta, round-tripped through the wire codec, and
// reconstructed receiver-side along the sequence chain. The
// reconstruction must equal the sender's full clock at every step,
// and the sparse deliverability check must agree with the dense one.
func FuzzDeltaVCCodec(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(20), uint8(4))
	f.Add(int64(7), uint8(1), uint8(3), uint8(1))
	f.Add(int64(99), uint8(32), uint8(50), uint8(16))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, casts, refreshRaw uint8) {
		n := 1 + int(nRaw)%64
		refresh := 1 + int(refreshRaw)%32
		rng := rand.New(rand.NewSource(seed))

		sender := vclock.ProcessID(rng.Intn(n))
		cur := vclock.New(n)   // sender's stamp clock
		prev := vclock.New(n)  // clock of the sender's previous cast
		recon := vclock.New(n) // receiver's chain reconstruction
		for i := uint64(1); i <= uint64(casts)%200+1; i++ {
			// Random concurrent progress, then the sender's own step.
			for j := 0; j < n/4+1; j++ {
				p := rng.Intn(n)
				if vclock.ProcessID(p) != sender {
					cur.Set(vclock.ProcessID(p), cur.Get(vclock.ProcessID(p))+uint64(rng.Intn(3)))
				}
			}
			cur.Set(sender, i)

			msg := &DataMsg{Group: "fuzz", Sender: sender, Seq: i,
				SentAt: time.Duration(i) * time.Millisecond, PayloadSize: 8}
			if (i-1)%uint64(refresh) == 0 {
				msg.VC = cur.Clone()
			} else {
				msg.VCDelta = cur.DiffFrom(prev, nil)
				if msg.VCDelta == nil {
					// A cast always advances the sender's own component,
					// so an empty diff means the chain state is wrong.
					t.Fatalf("cast %d produced an empty delta", i)
				}
			}

			kind, buf, err := wire.Marshal(msg)
			if err != nil {
				t.Fatalf("marshal cast %d: %v", i, err)
			}
			out, err := wire.Unmarshal(kind, buf)
			if err != nil {
				t.Fatalf("unmarshal cast %d: %v", i, err)
			}
			got := out.(*DataMsg)

			// Receiver-side reconstruction along the sequence chain.
			if got.VC != nil {
				copy(recon, got.VC)
			} else {
				if !recon.ApplyDelta(got.VCDelta) {
					t.Fatalf("cast %d: in-range delta rejected", i)
				}
			}
			if recon.Compare(cur) != vclock.Equal {
				t.Fatalf("cast %d: reconstructed %v != sent %v", i, recon, cur)
			}

			// The sparse check must agree with the dense CBCAST rule at
			// the in-order receive point (delivered = prev cast's clock)…
			if got.VCDelta != nil {
				if want := prev.Deliverable(cur, sender); prev.DeliverableDelta(sender, i, got.VCDelta) != want {
					t.Fatalf("cast %d: sparse deliverability %v, dense %v",
						i, !want, want)
				}
				// …and reject out-of-order application: a receiver that has
				// not delivered the sender's previous cast must refuse.
				stale := prev.Clone()
				if i >= 2 {
					stale.Set(sender, i-2)
					if stale.DeliverableDelta(sender, i, got.VCDelta) {
						t.Fatalf("cast %d: delta accepted out of order", i)
					}
				}
			}

			copy(prev, cur)
		}
	})
}

// FuzzDeltaVCWireDecode feeds arbitrary bytes to the DataMsg decoder;
// it must reject or produce bounded structures, never panic — delta
// entries arrive from the network and their indices are untrusted.
func FuzzDeltaVCWireDecode(f *testing.F) {
	msg := &DataMsg{Group: "g", Sender: 1, Seq: 5,
		VCDelta: []vclock.DeltaEntry{{Idx: 1, Val: 5}, {Idx: 3, Val: 2}}}
	kind, buf, err := wire.Marshal(msg)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(kind), buf)
	f.Fuzz(func(t *testing.T, k uint8, data []byte) {
		out, err := wire.Unmarshal(wire.Kind(k), data)
		if err != nil || out == nil {
			return
		}
		if d, ok := out.(*DataMsg); ok && d.VCDelta != nil {
			v := vclock.New(4)
			_ = v.ApplyDelta(d.VCDelta)             // must bound-check, not panic
			_ = v.DeliverableDelta(0, 1, d.VCDelta) // same
		}
	})
}

// TestDeltaChainOutOfOrderParks checks the member-level guard the fuzz
// targets cannot reach: a delta cast arriving before its chain
// predecessor must park (undeliverable), not corrupt the receiver's
// reconstruction.
func TestDeltaChainOutOfOrderParks(t *testing.T) {
	g := newTestGroup(t, 3, 1, transport.LinkConfig{BaseDelay: time.Millisecond},
		Config{Group: "g", Ordering: Causal, VCRefreshEvery: 100})
	// Sender 0 casts three times; drop the second at member 2 by
	// partitioning it away, then heal and cast again.
	g.members[0].Multicast("a", 8)
	g.k.Run()
	g.net.Partition([]transport.NodeID{0, 1}, []transport.NodeID{2})
	g.members[0].Multicast("b", 8)
	g.k.Run()
	g.net.Heal()
	g.members[0].Multicast("c", 8) // arrives at 2 with a chain gap
	g.k.Run()
	if got := len(g.deliveries[2]); got != 1 {
		t.Fatalf("member 2 delivered %d messages with a chain gap, want 1 (non-atomic: the gap never fills)", got)
	}
	// The parked cast must not have corrupted delivery at the connected
	// members.
	for r := 0; r < 2; r++ {
		if len(g.deliveries[r]) != 3 {
			t.Fatalf("member %d delivered %d of 3", r, len(g.deliveries[r]))
		}
	}
}
