package multicast

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"catocs/internal/transport"
	"catocs/internal/vclock"
)

// The full-clock protocol survives as the oracle for the stamp chain:
// whatever a cast's wire copy carries, the stamp a receiver hands the
// ordering layer must be the full clock its sender held. missWorld
// checks that on every delivery, and parkedCount and the stamps kept
// ahead of each chain head after every callback.

// TestChainStampMatchesFullClock runs both stamped orderings on seeded
// loss + dup + jitter worlds at every refresh period from 1 (a full
// clock on every cast) to the atomic default, through a view change and
// through a ResumeChains rejoin; then, on a lossless FIFO link where
// no chain can break, requires the period to be invisible: the same
// deliveries at the same instants at every member.
func TestChainStampMatchesFullClock(t *testing.T) {
	periods := []int{1, 2, 8, 32}
	scenarios := []struct {
		name    string
		seedOff int64
		run     func(*missWorld)
	}{
		{"viewchange", 0, (*missWorld).runViewChange},
		{"rejoin", 7, (*missWorld).runRejoin},
	}
	for _, ord := range []Ordering{Causal, TotalCausal} {
		for _, n := range []int{3, 8, 32} {
			seed := int64(1000*n) + int64(ord)
			for _, period := range periods {
				for _, sc := range scenarios {
					t.Run(fmt.Sprintf("%v/n%d/period%d/%s", ord, n, period, sc.name), func(t *testing.T) {
						t.Parallel()
						w := newMissWorld(t, lossyLink, ord, period, n, seed+sc.seedOff)
						sc.run(w)
						if period > 1 && w.parks == 0 {
							t.Fatal("no check ever saw a parked arrival: the chain was never broken")
						}
					})
				}
			}
			t.Run(fmt.Sprintf("%v/n%d/lossless-fifo", ord, n), func(t *testing.T) {
				t.Parallel()
				var base *missWorld
				for _, period := range periods {
					w := newMissWorld(t, transport.LinkConfig{BaseDelay: time.Millisecond}, ord, period, n, seed)
					casts := w.script(40)
					w.k.Run()
					if w.parks != 0 {
						t.Fatalf("period %d: an arrival parked on a lossless FIFO link", period)
					}
					if base == nil {
						base = w
					}
					for r := range w.got {
						if len(w.got[r]) != casts {
							t.Fatalf("period %d: rank %d delivered %d of %d", period, r, len(w.got[r]), casts)
						}
						if w.members[r].ahead != nil {
							t.Fatalf("period %d: rank %d kept a stamp ahead of a chain head on a lossless FIFO link", period, r)
						}
						if !slices.Equal(w.got[r], base.got[r]) || !slices.Equal(w.at[r], base.at[r]) {
							t.Fatalf("period %d: rank %d's deliveries differ from period %d's", period, r, periods[0])
						}
					}
				}
			})
		}
	}
}

// TestNonAtomicReorderStaysLive pins the default refresh period of a
// group with no recovery path. Jitter reorders a sender's casts; with
// a full clock on every cast the holdback queue sorts that out, and
// everything is delivered.
func TestNonAtomicReorderStaysLive(t *testing.T) {
	const n, per = 4, 48
	run := func(cfg Config) *testGroup {
		g := newTestGroup(t, n, 9, transport.LinkConfig{BaseDelay: time.Millisecond, Jitter: 8 * time.Millisecond}, cfg)
		for s := 0; s < n; s++ {
			for i := 0; i < per; i++ {
				g.k.At(time.Duration(i)*2*time.Millisecond, func() {
					g.members[s].Multicast(fmt.Sprintf("s%d-%d", s, i), 8)
				})
			}
		}
		g.k.Run()
		return g
	}
	t.Run("default", func(t *testing.T) {
		run(Config{Group: "g", Ordering: Causal}).assertAllDelivered(t, n*per)
	})
	t.Run("period32", func(t *testing.T) {
		// The known wedge: a full-clock copy that overtakes its delta
		// predecessors re-anchors the chain past them, and the late
		// arrivals drop as duplicates with nothing to recover them.
		run(Config{Group: "g", Ordering: Causal, VCRefreshEvery: 32}).assertAllDelivered(t, n*per)
	})
}

// TestChainDecodesPastOvertakingRefresh feeds one member a sender's
// casts with a refresh that overtakes its delta predecessors, the
// shape that used to jump the chain past them: every stamp known must
// decode the next delta, from the head or from ahead of it, and a
// delta whose predecessor's stamp is unknown must wait for it.
func TestChainDecodesPastOvertakingRefresh(t *testing.T) {
	const n, s, other = 4, 2, 3
	nodes := make([]transport.NodeID, n)
	for i := range nodes {
		nodes[i] = transport.NodeID(i)
	}
	var got []Delivered
	m := NewMember(nullNet{}, nodes, 1, Config{Group: "c", Ordering: Causal, Atomic: true, VCRefreshEvery: 8}, func(d Delivered) {
		if d.ID.Sender == s {
			got = append(got, d)
		}
	})
	// Sender s's cast q follows casts 1..(q+1)/2 of sender other, so its
	// deltas alternate between one and two entries.
	stamp := func(q uint64) vclock.VC {
		vc := vclock.New(n)
		vc.Set(s, q)
		vc.Set(other, (q+1)/2)
		return vc
	}
	for q := uint64(1); q <= 5; q++ {
		vc := vclock.New(n)
		vc.Set(other, q)
		m.Handle(nodes[other], &DataMsg{Group: "c", Sender: other, Seq: q, VC: vc})
	}
	full := func(q uint64) *DataMsg { return &DataMsg{Group: "c", Sender: s, Seq: q, VC: stamp(q)} }
	delta := func(q uint64) *DataMsg {
		return &DataMsg{Group: "c", Sender: s, Seq: q, VCDelta: stamp(q).DiffFrom(stamp(q-1), nil)}
	}
	feed := func(msgs ...*DataMsg) {
		for _, d := range msgs {
			m.Handle(nodes[s], d)
		}
	}

	feed(full(1), full(9), delta(10))
	if held := m.pendQ[s].Has(10); !held || m.parkedCount != 0 {
		t.Fatalf("delta 10 behind refresh 9: held=%v with %d parked; want it decoded from 9's stamp and held back", held, m.parkedCount)
	}
	feed(delta(3))
	if m.parkedCount != 1 {
		t.Fatalf("delta 3 with 2's stamp unknown: %d parked, want 1", m.parkedCount)
	}
	feed(delta(2), delta(4), delta(5), delta(6), delta(7), delta(8))
	feed(full(5), delta(9)) // duplicates, one of each encoding

	if len(got) != 10 {
		t.Fatalf("delivered %d of sender %d's 10 casts", len(got), s)
	}
	for i, d := range got {
		q := uint64(i + 1)
		if d.ID.Seq != q || !d.VC.Equal(stamp(q)) {
			t.Fatalf("delivery %d: cast %d stamped %v, want cast %d stamped %v", i, d.ID.Seq, d.VC, q, stamp(q))
		}
	}
	if dups := m.Duplicates.Value(); dups != 2 {
		t.Errorf("Duplicates = %d, want 2", dups)
	}
	if m.parkedCount != 0 || aheadCount(m) != 0 {
		t.Errorf("ended with %d parked and %d stamps ahead of the chain head", m.parkedCount, aheadCount(m))
	}
}

// inOrderStream builds rounds of casts, one from each of n senders per
// round, as a lossless FIFO link delivers them: each stamped with every
// cast before it, the first from each sender with its full clock and
// the rest as deltas against that sender's previous cast.
func inOrderStream(n, rounds int) []*DataMsg {
	clock := vclock.New(n)
	prev := make([]vclock.VC, n)
	var out []*DataMsg
	for range rounds {
		for s := range n {
			p := vclock.ProcessID(s)
			clock.Set(p, clock.Get(p)+1)
			d := &DataMsg{Group: "h", Sender: p, Seq: clock.Get(p)}
			if prev[s] == nil {
				d.VC = clock.Clone()
			} else {
				d.VCDelta = clock.DiffFrom(prev[s], nil)
			}
			prev[s] = clock.Clone()
			out = append(out, d)
		}
	}
	return out
}

// inOrderDeltaAllocs is what one in-order delta arrival at an atomic
// causal member allocated before the chain could hold stamps ahead of
// its head: the decoded stamp and the receiver's copy of the message
// (the stability buffer's growth amortizes to under one).
const inOrderDeltaAllocs = 2

// TestInOrderDeltasStayOnTheHead pins the TCP fleet's hot path: on a
// lossless FIFO link every delta decodes against its sender's chain
// head, so in-order traffic from every sender never allocates the store
// of stamps known ahead of the head, and an in-order delta arrival
// costs no more than it did before that store existed.
func TestInOrderDeltasStayOnTheHead(t *testing.T) {
	const n, rounds, runs = 3, 40, 100
	nodes := make([]transport.NodeID, n)
	for i := range nodes {
		nodes[i] = transport.NodeID(i)
	}
	delivered := 0
	m := NewMember(nullNet{}, nodes, 0, Config{Group: "h", Ordering: Causal, Atomic: true}, func(Delivered) { delivered++ })
	stream := inOrderStream(n, rounds+runs+1)
	for _, d := range stream[:n*rounds] {
		m.Handle(nodes[d.Sender], d)
	}
	if delivered != n*rounds || m.PendingCount() != 0 || m.ahead != nil {
		t.Fatalf("delivered %d of %d with %d pending, ahead store allocated: %v", delivered, n*rounds, m.PendingCount(), m.ahead != nil)
	}
	next := stream[n*rounds:]
	avg := testing.AllocsPerRun(runs, func() {
		m.Handle(nodes[next[0].Sender], next[0])
		next = next[1:]
	})
	if avg != inOrderDeltaAllocs {
		t.Errorf("an in-order delta arrival allocates %v times, want %d", avg, inOrderDeltaAllocs)
	}
	if m.ahead != nil || m.parkedCount != 0 {
		t.Errorf("in-order deltas allocated the ahead store (%v) or parked %d", m.ahead != nil, m.parkedCount)
	}
}

// TestOrderRunEqualsSingles feeds the same assignments to identical
// members as whole runs, as arbitrary splits of those runs, and as
// one-id runs — clean, and with duplicated, overlapping, reordered and
// out-of-window positions mixed in. A run is only an encoding: every
// form must leave the same order window, frontier and deliveries.
func TestOrderRunEqualsSingles(t *testing.T) {
	const n, total = 4, 24
	nodes := make([]transport.NodeID, n)
	for i := range nodes {
		nodes[i] = transport.NodeID(i)
	}
	// Position g holds ids[g-1]: senders interleaved, each in sequence.
	ids := make([]MsgID, total)
	for i := range ids {
		ids[i] = MsgID{Sender: vclock.ProcessID(i % n), Seq: uint64(i/n + 1)}
	}
	type run struct {
		first uint64
		ids   []MsgID
	}
	at := func(from, to int) run { return run{uint64(from), ids[from-1 : to]} }
	scenarios := map[string][]run{
		"clean":       {at(1, total)},
		"duplicated":  {at(1, 10), at(1, 10), at(11, total), at(11, total)},
		"overlapping": {at(1, 12), at(8, 20), at(15, total)},
		"reordered":   {at(9, total), at(4, 12), at(1, 5)},
		// A position beyond the window is dropped, but its id counts as
		// known from then on: a hostile frame can shadow real
		// assignments until the order-NACK path repairs them. Runs and
		// singles must at least agree on it.
		"out-of-window": {{maxOrderWindow + 2, ids[5:8]}, at(1, total)},
		// A run that claims ids already assigned elsewhere.
		"conflicting": {at(1, 12), {10, ids[0:6]}, at(13, total)},
	}
	type state struct {
		delivered     []MsgID
		win           []MsgID
		nextGlobal    uint64
		maxGlobalSeen uint64
	}
	// feed hands the scenario to a fresh member, each run cut into
	// messages of at most chunk assignments (0: whole; 1: one-id runs).
	feed := func(runs []run, chunk int) state {
		var st state
		m := NewMember(nullNet{}, nodes, 1, Config{Group: "o", Ordering: TotalSeq}, func(d Delivered) {
			st.delivered = append(st.delivered, d.ID)
		})
		// Data for all but the last four positions: delivery stops there
		// and the tail stays in the window for comparison.
		for _, id := range ids[:total-4] {
			m.Handle(nodes[id.Sender], &DataMsg{Group: "o", Sender: id.Sender, Seq: id.Seq})
		}
		for _, r := range runs {
			step := chunk
			if step == 0 {
				step = len(r.ids)
			}
			for i := 0; i < len(r.ids); i += step {
				g, part := r.first+uint64(i), r.ids[i:min(i+step, len(r.ids))]
				m.Handle(nodes[0], &OrderBatchMsg{Group: "o", FirstGlobal: g, IDs: part})
			}
		}
		// The window by position from nextGlobal, a zero id where no
		// assignment is known.
		m.orderWin.Ascend(func(g uint64, id MsgID) bool {
			for uint64(len(st.win)) < g-m.nextGlobal {
				st.win = append(st.win, MsgID{})
			}
			st.win = append(st.win, id)
			return true
		})
		st.nextGlobal, st.maxGlobalSeen = m.nextGlobal, m.maxGlobalSeen
		return st
	}
	equal := func(a, b state) bool {
		return slices.Equal(a.delivered, b.delivered) && slices.Equal(a.win, b.win) &&
			a.nextGlobal == b.nextGlobal && a.maxGlobalSeen == b.maxGlobalSeen
	}
	for name, runs := range scenarios {
		singles := feed(runs, 1)
		for _, chunk := range []int{0, 2, 3, 7} {
			if got := feed(runs, chunk); !equal(got, singles) {
				t.Errorf("%s in runs of %d: %+v\nas singles: %+v", name, chunk, got, singles)
			}
		}
		if name != "out-of-window" && name != "conflicting" {
			// The well-formed scenarios also have one right answer.
			if !slices.Equal(singles.delivered, ids[:total-4]) || !slices.Equal(singles.win, ids[total-4:]) ||
				singles.nextGlobal != total-3 || singles.maxGlobalSeen != total {
				t.Errorf("%s: %+v, want positions 1..%d delivered in assignment order and the rest windowed", name, singles, total-4)
			}
		}
	}
}
