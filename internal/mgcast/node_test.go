package mgcast

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"catocs/internal/flowcontrol"
	"catocs/internal/sim"
	"catocs/internal/transport"
	"catocs/internal/vclock"
)

// testWorld wires an N-node mgcast universe over a SimNet and records
// every delivery per rank.
type testWorld struct {
	k     *sim.Kernel
	net   *transport.SimNet
	nodes []*Node
	// delivered[rank] is that node's delivery log in order.
	delivered [][]Delivered
}

func newWorld(t *testing.T, seed int64, n int, link transport.LinkConfig, cfg Config) *testWorld {
	t.Helper()
	k := sim.NewKernel(seed)
	net := transport.NewSimNet(k, link)
	ids := make([]transport.NodeID, n)
	for i := range ids {
		ids[i] = transport.NodeID(i)
	}
	w := &testWorld{k: k, net: net, delivered: make([][]Delivered, n)}
	w.nodes = NewUniverse(net, ids, cfg, func(rank vclock.ProcessID) DeliverFunc {
		return func(d Delivered) {
			w.delivered[rank] = append(w.delivered[rank], d)
		}
	})
	return w
}

// overlappingGroups is the shared 6-node test topology: three groups in
// a ring, each overlapping both neighbours.
func overlappingGroups() map[string][]int {
	return map[string][]int{
		"A": {0, 1, 2},
		"B": {2, 3, 4},
		"C": {4, 5, 0},
	}
}

// checkPairwiseConsistent verifies that every two nodes deliver their
// common messages in the same relative order, and that each node's log
// is in strictly increasing final-timestamp order.
func checkPairwiseConsistent(t *testing.T, w *testWorld) {
	t.Helper()
	for rank, log := range w.delivered {
		for i := 1; i < len(log); i++ {
			if !log[i-1].Final.Less(log[i].Final) {
				t.Fatalf("node %d delivered out of final-stamp order: %s (%s) then %s (%s)",
					rank, log[i-1].ID, log[i-1].Final, log[i].ID, log[i].Final)
			}
		}
	}
	for a := range w.delivered {
		posA := make(map[MsgID]int, len(w.delivered[a]))
		for i, d := range w.delivered[a] {
			posA[d.ID] = i
		}
		for b := a + 1; b < len(w.delivered); b++ {
			var common []MsgID
			for _, d := range w.delivered[b] {
				if _, ok := posA[d.ID]; ok {
					common = append(common, d.ID)
				}
			}
			// common is in b's order; it must be ascending in a's order.
			for i := 1; i < len(common); i++ {
				if posA[common[i-1]] > posA[common[i]] {
					t.Fatalf("nodes %d and %d disagree on order of %s vs %s",
						a, b, common[i-1], common[i])
				}
			}
		}
	}
}

func TestMultiGroupPairwiseOrder(t *testing.T) {
	link := transport.LinkConfig{BaseDelay: 2 * time.Millisecond, Jitter: 2 * time.Millisecond}
	w := newWorld(t, 42, 6, link, Config{Groups: overlappingGroups()})

	// Every node fires casts at overlapping group sets on a staggered
	// schedule so proposals genuinely interleave.
	sets := [][]string{{"A"}, {"B"}, {"C"}, {"A", "B"}, {"B", "C"}, {"C", "A"}, {"A", "B", "C"}}
	rng := rand.New(rand.NewSource(7))
	want := make(map[MsgID][]vclock.ProcessID) // id -> dest ranks
	const perSender = 8
	for s := 0; s < 6; s++ {
		s := s
		for i := 0; i < perSender; i++ {
			gs := sets[rng.Intn(len(sets))]
			at := time.Duration(i)*3*time.Millisecond + time.Duration(s)*100*time.Microsecond
			w.k.At(at, func() {
				id := w.nodes[s].Multicast(gs, i, 16)
				want[id] = w.nodes[s].DestRanks(gs)
			})
		}
	}
	w.k.RunUntil(5 * time.Second)

	// Every destination member delivered every message, exactly once.
	got := make(map[MsgID]map[vclock.ProcessID]int)
	for rank, log := range w.delivered {
		for _, d := range log {
			if got[d.ID] == nil {
				got[d.ID] = make(map[vclock.ProcessID]int)
			}
			got[d.ID][vclock.ProcessID(rank)]++
		}
	}
	for id, dests := range want {
		for _, r := range dests {
			if got[id][vclock.ProcessID(r)] != 1 {
				t.Fatalf("message %s: dest %d delivered %d times, want 1", id, r, got[id][vclock.ProcessID(r)])
			}
		}
		if len(got[id]) != len(dests) {
			t.Fatalf("message %s: delivered at %d nodes, want exactly dests %v", id, len(got[id]), dests)
		}
	}
	checkPairwiseConsistent(t, w)

	// Agreement fully retired everywhere.
	for rank, n := range w.nodes {
		if n.OutstandingCasts() != 0 || n.PendingCount() != 0 {
			t.Fatalf("node %d: %d outstanding casts, %d pending after quiesce", rank, n.OutstandingCasts(), n.PendingCount())
		}
	}
}

// TestSingleGroupAgreementOnOrder is Skeen's total-order property on
// one group spanning every node, the ISIS ABCAST configuration: under
// arbitrary jitter seeds, with and without loss, every member delivers
// every cast, and all members deliver them in the identical sequence.
func TestSingleGroupAgreementOnOrder(t *testing.T) {
	const n, perSender = 4, 5
	for _, loss := range []float64{0, 0.1} {
		var retrans uint64
		for seed := int64(0); seed < 15; seed++ {
			link := transport.LinkConfig{Jitter: 25 * time.Millisecond, LossProb: loss}
			w := newWorld(t, seed, n, link, Config{Groups: map[string][]int{"all": {0, 1, 2, 3}}})
			for s := 0; s < n; s++ {
				w.k.At(0, func() {
					for i := 0; i < perSender; i++ {
						w.nodes[s].Multicast([]string{"all"}, i, 4)
					}
				})
			}
			w.k.RunUntil(30 * time.Second)

			seq := make([]string, n)
			for rank, log := range w.delivered {
				if len(log) != n*perSender {
					t.Fatalf("loss %v seed %d: node %d delivered %d of %d", loss, seed, rank, len(log), n*perSender)
				}
				ids := make([]MsgID, len(log))
				for i, d := range log {
					ids[i] = d.ID
				}
				seq[rank] = fmt.Sprint(ids)
			}
			for rank := 1; rank < n; rank++ {
				if seq[rank] != seq[0] {
					t.Fatalf("loss %v seed %d: nodes 0 and %d disagree:\n%s\nvs\n%s", loss, seed, rank, seq[0], seq[rank])
				}
			}
			for _, nd := range w.nodes {
				retrans += nd.Retransmits.Value()
			}
		}
		if loss > 0 && retrans == 0 {
			t.Fatalf("loss %v: no retransmissions, so recovery was never exercised", loss)
		}
	}
}

func TestLossToleranceAndDuplicates(t *testing.T) {
	link := transport.LinkConfig{
		BaseDelay: 1 * time.Millisecond,
		Jitter:    3 * time.Millisecond,
		LossProb:  0.2,
		DupProb:   0.1,
	}
	w := newWorld(t, 99, 6, link, Config{Groups: overlappingGroups(), RetransInterval: 20 * time.Millisecond})

	total := 0
	for s := 0; s < 6; s++ {
		s := s
		for i := 0; i < 5; i++ {
			w.k.At(time.Duration(i*4)*time.Millisecond, func() {
				w.nodes[s].Multicast([]string{"A", "B"}, i, 16)
			})
			total++
		}
	}
	w.k.RunUntil(30 * time.Second)

	dests := w.nodes[0].DestRanks([]string{"A", "B"}) // {0,1,2,3,4}
	for _, r := range dests {
		if len(w.delivered[r]) != total {
			t.Fatalf("node %d delivered %d of %d despite retransmission", r, len(w.delivered[r]), total)
		}
	}
	checkPairwiseConsistent(t, w)
	retrans := uint64(0)
	for _, n := range w.nodes {
		retrans += n.Retransmits.Value()
	}
	if retrans == 0 {
		t.Fatalf("expected retransmissions under 20%% loss, saw none")
	}
}

func TestAdmissionWindowBlock(t *testing.T) {
	link := transport.LinkConfig{BaseDelay: 5 * time.Millisecond}
	cfg := Config{
		Groups:   overlappingGroups(),
		Budget:   flowcontrol.Budget{MaxMsgs: 1},
		Overflow: flowcontrol.Block,
	}
	w := newWorld(t, 1, 6, link, cfg)

	// Fire 4 casts back-to-back: only one may be in agreement at a time.
	w.k.At(0, func() {
		for i := 0; i < 4; i++ {
			w.nodes[0].Multicast([]string{"A"}, i, 10)
		}
		if got := w.nodes[0].BlockedCount(); got != 3 {
			t.Errorf("blocked count = %d, want 3", got)
		}
		if got := w.nodes[0].OutstandingCasts(); got != 1 {
			t.Errorf("outstanding = %d, want 1", got)
		}
	})
	w.k.RunUntil(5 * time.Second)

	for _, r := range []int{0, 1, 2} {
		if len(w.delivered[r]) != 4 {
			t.Fatalf("node %d delivered %d, want all 4 parked casts to drain", r, len(w.delivered[r]))
		}
		// FIFO: payloads in send order.
		for i, d := range w.delivered[r] {
			if d.Payload.(int) != i {
				t.Fatalf("node %d delivery %d has payload %v, want %d (FIFO)", r, i, d.Payload, i)
			}
		}
	}
	if w.nodes[0].AdmissionStall.Count() == 0 {
		t.Fatalf("expected admission-stall samples for parked casts")
	}
}

func TestAdmissionWindowShed(t *testing.T) {
	link := transport.LinkConfig{BaseDelay: 5 * time.Millisecond}
	cfg := Config{
		Groups:   overlappingGroups(),
		Budget:   flowcontrol.Budget{MaxMsgs: 2},
		Overflow: flowcontrol.Shed,
	}
	w := newWorld(t, 1, 6, link, cfg)

	var ids []MsgID
	w.k.At(0, func() {
		for i := 0; i < 5; i++ {
			ids = append(ids, w.nodes[0].Multicast([]string{"A"}, i, 10))
		}
	})
	w.k.RunUntil(5 * time.Second)

	sent := 0
	for _, id := range ids {
		if id != (MsgID{}) {
			sent++
		}
	}
	if sent != 2 {
		t.Fatalf("admitted %d casts, want 2 under MaxMsgs=2", sent)
	}
	if got := w.nodes[0].ShedCount.Value(); got != 3 {
		t.Fatalf("shed %d casts, want 3", got)
	}
	if len(w.delivered[1]) != 2 {
		t.Fatalf("node 1 delivered %d, want the 2 admitted casts", len(w.delivered[1]))
	}
}

func TestUnknownGroupPanics(t *testing.T) {
	w := newWorld(t, 1, 6, transport.LinkConfig{}, Config{Groups: overlappingGroups()})
	defer func() {
		if recover() == nil {
			t.Fatalf("Multicast to unknown group did not panic")
		}
	}()
	w.k.At(0, func() { w.nodes[0].Multicast([]string{"nope"}, nil, 0) })
	w.k.Run()
}

// TestMaxMergeOrderInvariant pins down that the coordinator's final
// timestamp is independent of proposal arrival order: MaxStamp folded
// over every permutation of a concurrent proposal set yields the same
// stamp, and ties on Time resolve by proposer rank.
func TestMaxMergeOrderInvariant(t *testing.T) {
	proposals := []vclock.Stamp{
		{Time: 7, Proc: 2},
		{Time: 9, Proc: 0},
		{Time: 9, Proc: 3}, // time tie with above; higher proc wins
		{Time: 4, Proc: 5},
		{Time: 9, Proc: 1},
	}
	want := vclock.Stamp{Time: 9, Proc: 3}

	var permute func(p []vclock.Stamp, k int)
	checked := 0
	permute = func(p []vclock.Stamp, k int) {
		if k == len(p) {
			acc := p[0]
			for _, s := range p[1:] {
				acc = MaxStamp(acc, s)
			}
			if acc != want {
				t.Fatalf("fold over %v = %s, want %s", p, acc, want)
			}
			checked++
			return
		}
		for i := k; i < len(p); i++ {
			p[k], p[i] = p[i], p[k]
			permute(p, k+1)
			p[k], p[i] = p[i], p[k]
		}
	}
	permute(append([]vclock.Stamp(nil), proposals...), 0)
	if checked != 120 {
		t.Fatalf("checked %d permutations, want 5! = 120", checked)
	}
}
