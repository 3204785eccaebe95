package multicast

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"catocs/internal/sim"
	"catocs/internal/stability"
	"catocs/internal/transport"
	"catocs/internal/vclock"
)

// missWorld is one seeded group whose members are checked against the
// reference models after every handler and timer callback: the gap
// index against referenceMissingSet, and every delivered causal stamp
// against the full clock its sender held when it cast.
type missWorld struct {
	t       *testing.T
	k       *sim.Kernel
	net     *transport.SimNet
	nodes   []transport.NodeID
	cfg     Config
	members []*Member
	got     [][]any           // payloads delivered per rank, across lives
	at      [][]time.Duration // the instant of each delivery in got
	gaps    int               // checks that saw a non-empty missing set
	parks   int               // checks that saw a parked arrival
	// stamps is the stamp oracle: the sender-side full clock of every
	// transmission of a cast, keyed by epoch and id. A ResumeChains
	// replay re-stamps a sequence number, so an id can have two.
	stamps map[stampKey][]vclock.VC
	// seqLog copies the sequencer's live assignment log (from seqBase)
	// as the last check saw it, so the next check can tell what the
	// sequencer popped since; seqWas is the sequencer it belongs to.
	seqWas  *sequencer
	seqLog  []MsgID
	seqBase uint64
}

type stampKey struct {
	epoch uint64
	id    MsgID
}

// lossyLink reorders, drops and duplicates.
var lossyLink = transport.LinkConfig{
	BaseDelay: time.Millisecond, Jitter: 6 * time.Millisecond, LossProb: 0.08, DupProb: 0.05,
}

// checkedNet decorates the network for one member so the equivalence
// check runs right after each of its handler and timer callbacks.
type checkedNet struct {
	transport.Network
	w *missWorld
	m *Member
}

func (c *checkedNet) Register(id transport.NodeID, h transport.Handler) {
	c.Network.Register(id, func(from transport.NodeID, payload any) {
		h(from, payload)
		c.w.check(c.m)
	})
}

// Send records the stamp oracle. A member's own casts reach the network
// as *DataMsg only from multicastNow (retransmissions travel wrapped),
// at the instant the stamp was taken: the delivered clock with the
// sender's own entry at the cast's sequence number — the definition of
// the CBCAST stamp, whatever encoding the wire copy carries.
func (c *checkedNet) Send(from, to transport.NodeID, payload any) {
	w, m := c.w, c.m
	var d *DataMsg
	switch p := payload.(type) {
	case *DataMsg:
		d = p
		if w.cfg.stamped() && to == w.nodes[0] { // once per cast: sendAll starts at rank 0
			want := m.delivered.Clone()
			want.Set(m.rank, d.Seq)
			key := stampKey{d.Epoch, d.ID()}
			w.stamps[key] = append(w.stamps[key], want)
		}
	case *RetransMsg:
		d = p.Data
		if w.cfg.stamped() && d.VC == nil {
			w.t.Fatalf("t=%v rank %d: retransmission of %v without its full clock", w.k.Now(), m.rank, d.ID())
		}
	}
	if d != nil && d.VCDelta != nil && w.cfg.vcRefreshEvery() == 1 {
		w.t.Fatalf("t=%v rank %d: period 1 put a delta stamp on the wire for %v", w.k.Now(), m.rank, d.ID())
	}
	c.Network.Send(from, to, payload)
}

func (c *checkedNet) After(d time.Duration, f func()) {
	c.Network.After(d, func() {
		f()
		c.w.check(c.m)
	})
}

// newMissWorld builds an atomic group of n on link; refresh is the
// stamp chain's period (ignored by the unstamped orderings).
func newMissWorld(t *testing.T, link transport.LinkConfig, ord Ordering, refresh, n int, seed int64) *missWorld {
	k := sim.NewKernel(seed)
	k.SetEventLimit(quiesceEventLimit)
	w := &missWorld{
		t: t, k: k,
		net:   transport.NewSimNet(k, link),
		nodes: make([]transport.NodeID, n),
		cfg: Config{Group: "miss", Ordering: ord, Atomic: true, VCRefreshEvery: refresh,
			AckInterval: 10 * time.Millisecond, NackDelay: 10 * time.Millisecond},
		members: make([]*Member, n),
		got:     make([][]any, n),
		at:      make([][]time.Duration, n),
		stamps:  make(map[stampKey][]vclock.VC),
	}
	for i := range w.nodes {
		w.nodes[i] = transport.NodeID(i)
	}
	for r := range w.members {
		w.spawn(r)
	}
	return w
}

// spawn builds (or, after a crash, rebuilds) the member at rank r.
func (w *missWorld) spawn(r int) *Member {
	cn := &checkedNet{Network: w.net, w: w}
	cn.m = NewMember(cn, w.nodes, vclock.ProcessID(r), w.cfg, func(d Delivered) {
		w.got[r] = append(w.got[r], d.Payload)
		w.at[r] = append(w.at[r], d.At)
		if !w.cfg.stamped() {
			return
		}
		sent := w.stamps[stampKey{cn.m.epoch, d.ID}]
		if !slices.ContainsFunc(sent, d.VC.Equal) {
			w.t.Fatalf("t=%v rank %d: delivered %v stamped %v, sender stamped %v", w.k.Now(), r, d.ID, d.VC, sent)
		}
	})
	w.members[r] = cn.m
	return cn.m
}

// check asserts that the incremental gap index agrees with the
// from-scratch oracle, the invariants hasMissing's count rests on, that
// parkedCount counts exactly the parked arrivals, and that every stamp
// known ahead of a chain head is really ahead of it.
func (w *missWorld) check(m *Member) {
	t := w.t
	parked := 0
	for _, shard := range m.parked {
		parked += len(shard)
	}
	if m.parkedCount != parked {
		t.Fatalf("t=%v rank %d epoch %d: parkedCount = %d with %d parked", w.k.Now(), m.rank, m.epoch, m.parkedCount, parked)
	}
	if parked > 0 {
		w.parks++
	}
	for s, stamps := range m.ahead {
		for q := range stamps {
			if q <= m.reconSeq[s] {
				t.Fatalf("t=%v rank %d epoch %d: stamp of (%d,%d) kept ahead of chain head %d", w.k.Now(), m.rank, m.epoch, s, q, m.reconSeq[s])
			}
		}
	}
	// A parked delta sits above its chain head, and right above it only
	// when the head's stamp is unknown (a ResumeChains checkpoint): any
	// other base would have decoded it.
	for s, shard := range m.parked {
		for q := range shard {
			if q <= m.reconSeq[s] || q == m.reconSeq[s]+1 && m.reconVC[s] != nil {
				t.Fatalf("t=%v rank %d epoch %d: (%d,%d) parked with chain head %d (stamp known: %v)", w.k.Now(), m.rank, m.epoch, s, q, m.reconSeq[s], m.reconVC[s] != nil)
			}
			if q > m.known[s] || m.cfg.Ordering == Causal && q <= m.delivered[s] {
				t.Fatalf("t=%v rank %d epoch %d: (%d,%d) parked outside (delivered %d, known %d]", w.k.Now(), m.rank, m.epoch, s, q, m.delivered[s], m.known[s])
			}
		}
	}
	want := m.referenceMissingSet()
	var got []MsgID
	m.eachMissing(func(id MsgID) bool {
		got = append(got, id)
		return true
	})
	if !slices.Equal(got, want) {
		t.Fatalf("t=%v rank %d epoch %d: eachMissing = %v, reference = %v", w.k.Now(), m.rank, m.epoch, got, want)
	}
	if m.hasMissing() != (len(want) > 0) {
		t.Fatalf("t=%v rank %d: hasMissing = %v with reference %v", w.k.Now(), m.rank, m.hasMissing(), want)
	}
	if len(want) > 0 {
		w.gaps++
	}
	if m.seq != nil {
		w.checkSequencer(m)
	}
	for id := range m.nackRetries {
		_, held := m.pendQ[id.Sender][id.Seq]
		if _, arrived := m.dataGet(id); held || arrived {
			t.Fatalf("t=%v rank %d: retry count kept for %v, which is buffered", w.k.Now(), m.rank, id)
		}
	}
	if m.cfg.Ordering != FIFO && m.cfg.Ordering != Causal {
		return
	}
	for s := range m.known {
		if m.known[s] < m.delivered[s] {
			t.Fatalf("t=%v rank %d: known[%d] = %d < delivered = %d", w.k.Now(), m.rank, s, m.known[s], m.delivered[s])
		}
		for q, msg := range m.pendQ[s] {
			if q <= m.delivered[s] || q > m.known[s] {
				t.Fatalf("t=%v rank %d: held (%d,%d) outside (delivered %d, known %d]", w.k.Now(), m.rank, s, q, m.delivered[s], m.known[s])
			}
			for p, v := range msg.VC {
				if v > m.known[p] {
					t.Fatalf("t=%v rank %d: held (%d,%d) stamp[%d] = %d above known %d", w.k.Now(), m.rank, s, q, p, v, m.known[p])
				}
			}
		}
	}
}

// checkSequencer holds the sequencer's log index to the scan it
// replaced, and checks the prune rule: every id popped since the last
// check is stable and gone from the index, and no member of the view
// has a delivery frontier below the log — so no OrderNack it sends can
// name a popped position.
func (w *missWorld) checkSequencer(m *Member) {
	t, s := w.t, m.seq
	if s != w.seqWas {
		w.seqWas, w.seqLog, w.seqBase = s, nil, s.assignedBase
	}
	for g := w.seqBase; g < s.assignedBase && g-w.seqBase < uint64(len(w.seqLog)); g++ {
		id := w.seqLog[g-w.seqBase]
		if !m.stab.Stable(stability.Key{Sender: id.Sender, Seq: id.Seq}) {
			t.Fatalf("t=%v epoch %d: the sequencer popped %v at %d, which is not stable", w.k.Now(), m.epoch, id, g)
		}
		if at, ok := s.assignedGlobalOf(id); ok {
			t.Fatalf("t=%v epoch %d: %v, popped at %d, is still indexed at %d", w.k.Now(), m.epoch, id, g, at)
		}
	}
	w.seqLog, w.seqBase = append(w.seqLog[:0], s.assignedLog...), s.assignedBase
	for _, id := range s.assignedLog {
		g, ok := s.assignedGlobalOf(id)
		if want, _ := s.referenceAssignedGlobalOf(id); !ok || g != want {
			t.Fatalf("t=%v epoch %d: index has %v at %d (%v), the log at %d", w.k.Now(), m.epoch, id, g, ok, want)
		}
	}
	for r, o := range w.members {
		if !o.closed && o.epoch == m.epoch && o.nextGlobal < s.assignedBase {
			t.Fatalf("t=%v epoch %d: rank %d delivers from %d, below the sequencer's log at %d", w.k.Now(), m.epoch, r, o.nextGlobal, s.assignedBase)
		}
	}
}

// aheadCount is the number of stamps m knows ahead of its chain heads.
func aheadCount(m *Member) int {
	k := 0
	for _, stamps := range m.ahead {
		k += len(stamps)
	}
	return k
}

// script schedules per casts from each writer, 4 ms apart; the last
// rank (the one the scenarios crash) always writes.
func (w *missWorld) script(per int) (casts int) {
	n := len(w.nodes)
	step := n / 4
	if step == 0 {
		step = 1
	}
	for r := 0; r < n; r++ {
		if r%step != 0 && r != n-1 {
			continue
		}
		for i := 0; i < per; i++ {
			w.k.At(time.Duration(i)*4*time.Millisecond+time.Duration(r)*100*time.Microsecond, func() {
				if m := w.members[r]; !w.net.Crashed(w.nodes[r]) {
					m.Multicast([2]int{r, i}, 32)
					w.check(m)
				}
			})
		}
		casts += per
	}
	return casts
}

// exactlyOnce fails unless rank r delivered every payload at most once;
// it returns the delivered set.
func (w *missWorld) exactlyOnce(r int) map[any]bool {
	set := make(map[any]bool, len(w.got[r]))
	for _, p := range w.got[r] {
		if set[p] {
			w.t.Fatalf("rank %d delivered %v twice", r, p)
		}
		set[p] = true
	}
	return set
}

// viewChange crashes the last rank mid-run and walks the survivors
// through a flush in three separate instants — suppress, fill, install
// — so acks and NACK timers run (and are checked) inside the window
// where ForceDeliver has moved delivered but the view is not yet reset.
func (w *missWorld) viewChange(at time.Duration) {
	n := len(w.nodes)
	survivors := w.members[:n-1]
	w.k.At(at, func() {
		w.net.Crash(w.nodes[n-1])
		w.members[n-1].Close()
		for _, m := range survivors {
			m.Suppress()
			w.check(m)
		}
	})
	w.k.At(at+8*time.Millisecond, func() {
		union := make(map[MsgID]*DataMsg)
		for _, m := range survivors {
			for _, d := range m.UnstableData() {
				union[d.ID()] = d
			}
		}
		fills := make([]*DataMsg, 0, len(union))
		for _, d := range union {
			fills = append(fills, d)
		}
		sort.Slice(fills, func(i, j int) bool {
			if fills[i].Sender != fills[j].Sender {
				return fills[i].Sender < fills[j].Sender
			}
			return fills[i].Seq < fills[j].Seq
		})
		for _, m := range survivors {
			for _, d := range fills {
				m.ForceDeliver(d)
				w.check(m)
			}
		}
	})
	w.k.At(at+16*time.Millisecond, func() {
		for r, m := range survivors {
			m.InstallView(w.nodes[:n-1], vclock.ProcessID(r), 1)
			w.check(m)
			m.Resume()
			w.check(m)
		}
	})
}

// rejoin crashes the last rank of a static group and later rebuilds it
// from its chain checkpoint the way the TCP fleet's WAL recovery does:
// resume the send chain at the stable cast count, replay the unstable
// suffix under its original sequence numbers.
func (w *missWorld) rejoin(crashAt, backAt time.Duration) {
	r := len(w.nodes) - 1
	var ack []uint64
	var frontier, stable uint64
	var suffix []any
	w.k.At(crashAt, func() {
		m := w.members[r]
		ack, frontier = m.CheckpointChains()
		stable = m.sendSeq
		for _, d := range m.UnstableData() {
			if d.Sender == m.rank {
				suffix = append(suffix, d.Payload)
			}
		}
		stable -= uint64(len(suffix))
		m.Close()
		w.net.Crash(w.nodes[r])
	})
	w.k.At(backAt, func() {
		w.net.Recover(w.nodes[r])
		m := w.spawn(r)
		m.ResumeChains(stable, len(suffix), ack, frontier)
		w.check(m)
		for _, p := range suffix {
			m.Multicast(p, 32)
			w.check(m)
		}
	})
}

// runViewChange drives the scripted casts through a mid-run view change
// that excises the last rank, runs the world until it falls silent, and
// requires the survivors to agree.
func (w *missWorld) runViewChange() {
	t, n := w.t, len(w.nodes)
	w.script(30)
	w.viewChange(60 * time.Millisecond)
	w.k.Run()
	base := w.exactlyOnce(0)
	for r := 0; r < n-1; r++ {
		set := w.exactlyOnce(r)
		if len(set) != len(base) {
			t.Fatalf("survivor %d delivered %d payloads, survivor 0 delivered %d", r, len(set), len(base))
		}
		for p := range base {
			if !set[p] {
				t.Fatalf("survivor %d missed %v", r, p)
			}
		}
		if m := w.members[r]; m.Epoch() != 1 || m.PendingCount() != 0 || aheadCount(m) != 0 {
			t.Fatalf("survivor %d ended in epoch %d holding %d, %d stamps ahead", r, m.Epoch(), m.PendingCount(), aheadCount(m))
		}
	}
	if w.gaps == 0 {
		t.Fatal("no check ever saw a gap: the schedule exercised nothing")
	}
}

// runRejoin drives the scripted casts through a crash and ResumeChains
// rejoin of the last rank, runs the world until it falls silent, and
// requires everything cast to be everywhere.
func (w *missWorld) runRejoin() {
	t, n := w.t, len(w.nodes)
	casts := w.script(30)
	w.rejoin(50*time.Millisecond, 90*time.Millisecond)
	w.k.Run()
	// Casts the script skipped while the rank was down never
	// happened; everything that was cast must be everywhere.
	everywhere := w.exactlyOnce(n - 1)
	if len(everywhere) > casts || len(everywhere) < casts-30 {
		t.Fatalf("rejoined rank delivered %d payloads of at most %d cast", len(everywhere), casts)
	}
	for r := 0; r < n; r++ {
		if set := w.exactlyOnce(r); len(set) != len(everywhere) {
			t.Fatalf("rank %d delivered %d payloads, rejoined rank delivered %d", r, len(set), len(everywhere))
		}
		if k := aheadCount(w.members[r]); k != 0 {
			t.Fatalf("rank %d ended with %d stamps ahead of its chain heads", r, k)
		}
	}
	if w.gaps == 0 {
		t.Fatal("no check ever saw a gap: the schedule exercised nothing")
	}
}

// TestMissingSetMatchesReference drives seeded drop/dup/reorder
// schedules through every atomic ordering, with the stamp chain at
// period 1 (a full clock on every cast) and at period 8, and holds the
// incremental gap index to the from-scratch oracle after every
// callback, through a view change and through a ResumeChains rejoin.
func TestMissingSetMatchesReference(t *testing.T) {
	configs := []struct {
		name    string
		ord     Ordering
		refresh int
	}{
		{"fifo", FIFO, 0},
		{"causal", Causal, 1},
		{"causal-delta", Causal, 8},
		{"total-seq", TotalSeq, 0},
		{"total-causal", TotalCausal, 1},
	}
	for _, c := range configs {
		for _, n := range []int{3, 8, 32} {
			seed := int64(100*n) + int64(c.ord)
			t.Run(fmt.Sprintf("%s/n%d/viewchange", c.name, n), func(t *testing.T) {
				t.Parallel()
				newMissWorld(t, lossyLink, c.ord, c.refresh, n, seed).runViewChange()
			})
			t.Run(fmt.Sprintf("%s/n%d/rejoin", c.name, n), func(t *testing.T) {
				t.Parallel()
				newMissWorld(t, lossyLink, c.ord, c.refresh, n, seed+7).runRejoin()
			})
		}
	}
}

// nullNet drops sends and timers: a member on it only reacts to what a
// test hands it directly.
type nullNet struct{}

func (nullNet) Register(transport.NodeID, transport.Handler) {}
func (nullNet) Send(_, _ transport.NodeID, _ any)            {}
func (nullNet) Now() time.Duration                           { return 0 }
func (nullNet) After(time.Duration, func())                  {}

// TestOnAckGapFreeAllocatesNothing pins the ack path on a member that
// holds messages but misses none at zero allocations, with the NACK
// timer disarmed so the gap test itself runs on every ack: the count
// under Causal (deliverable messages held by a flush window) and the
// first-gap scan under TotalSeq (data waiting for its order).
func TestOnAckGapFreeAllocatesNothing(t *testing.T) {
	const n = 8
	nodes := make([]transport.NodeID, n)
	for i := range nodes {
		nodes[i] = transport.NodeID(i)
	}
	for _, ord := range []Ordering{Causal, TotalSeq} {
		m := NewMember(nullNet{}, nodes, 1, Config{Group: "a", Ordering: ord, Atomic: true}, func(Delivered) {})
		if ord == Causal {
			m.Suppress()
		}
		for seq := uint64(1); seq <= 20; seq++ {
			vc := vclock.New(n)
			vc.Set(2, seq)
			m.Handle(nodes[2], &DataMsg{Group: "a", Sender: 2, Seq: seq, VC: vc})
		}
		if m.PendingCount() != 20 || m.hasMissing() {
			t.Fatalf("%v: holding %d with hasMissing=%v, want 20 held and gap-free", ord, m.PendingCount(), m.hasMissing())
		}
		ack := &AckMsg{Group: "a", From: 3, Delivered: vclock.New(n)}
		ack.Delivered.Set(2, 20)
		if avg := testing.AllocsPerRun(100, func() {
			m.nackArmed = false
			m.onAck(ack)
		}); avg != 0 {
			t.Errorf("%v: onAck allocates %.1f times per ack on a gap-free member", ord, avg)
		}
		if m.nackArmed {
			t.Errorf("%v: a gap-free ack armed the NACK timer", ord)
		}
	}
}
