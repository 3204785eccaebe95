package group

import (
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"catocs/internal/flowcontrol"
	"catocs/internal/multicast"
	"catocs/internal/obs"
	"catocs/internal/obs/live"
	"catocs/internal/sim"
	"catocs/internal/transport"
	"catocs/internal/vclock"
)

// TestSuspectPolicyExcisesSlowConsumer is the deterministic end-to-end
// run of the Suspect overflow policy: a member that stays ALIVE — its
// heartbeats and acks are perfectly timely — but consumes inbound
// traffic 400ms late. Silence-based failure detection can never see
// it; the heartbeat Monitor alone would let it pin every member's
// stability buffer indefinitely (the §5 trilemma's excise arm needs
// different evidence). The sender's admission window stalls against
// the laggard's stale ack frontier, the stall path names the laggard
// from the stability matrix, ForceSuspect feeds the membership layer,
// and the ordinary flush protocol excises the node — after which the
// survivors' buffers must drain to zero.
func TestSuspectPolicyExcisesSlowConsumer(t *testing.T) {
	const (
		n     = 4
		casts = 60
		slow  = transport.NodeID(3)
	)
	k := sim.NewKernel(11)
	k.SetEventLimit(20_000_000)
	net := transport.NewSimNet(k, transport.LinkConfig{BaseDelay: time.Millisecond})
	mux := transport.NewMux(net)
	nodes := make([]transport.NodeID, n)
	for i := range nodes {
		nodes[i] = transport.NodeID(i)
	}
	counts := make([]int, n)
	members := make([]*multicast.Member, n)
	monitors := make([]*Monitor, n)
	for i := range nodes {
		i := i
		cfg := multicast.Config{
			Group: "sus", Ordering: multicast.Causal, Atomic: true,
			Budget:       flowcontrol.Budget{MaxMsgs: 12},
			Overflow:     flowcontrol.Suspect,
			StallTimeout: 200 * time.Millisecond,
			// Accusations land at this member's own monitor; the flush
			// protocol spreads the consequence to the group.
			OnSuspect: func(r vclock.ProcessID) { monitors[i].ForceSuspect(r) },
		}
		rank := vclock.ProcessID(i)
		members[i] = multicast.NewMember(mux, nodes, rank, cfg, func(multicast.Delivered) {
			counts[i]++
		})
	}
	// SuspectTimeout far above the lag: heartbeats INTO the slow node
	// arrive 400ms late, and with the default 40ms timeout the slow node
	// would suspect the whole world and secede — a silence-based
	// excision. Pushing the timeout to 2s makes heartbeat detection
	// genuinely blind here, so any excision must come from the
	// flow-control stall accusation.
	for i, m := range members {
		monitors[i] = NewMonitor(mux, m, "sus", Config{SuspectTimeout: 2 * time.Second})
	}
	for _, mon := range monitors {
		mon.Start()
	}
	net.Slow(slow, 400*time.Millisecond)
	for i := 0; i < casts; i++ {
		i := i
		k.At(time.Duration(i)*2*time.Millisecond, func() {
			members[0].Multicast(fmt.Sprintf("m%d", i), 64)
		})
	}
	k.RunUntil(15 * time.Second)

	if members[0].SuspectCount.Value() == 0 {
		t.Fatal("sender never accused the laggard")
	}
	survivors := []int{0, 1, 2}
	for _, r := range survivors {
		m := members[r]
		if m.Epoch() == 0 {
			t.Fatalf("rank %d never installed a new view", r)
		}
		if m.GroupSize() != n-1 {
			t.Fatalf("rank %d view size %d, want %d (laggard excised)", r, m.GroupSize(), n-1)
		}
		for _, node := range m.ViewNodes() {
			if node == slow {
				t.Fatalf("rank %d view still contains the excised node", r)
			}
		}
		// The paid-for outcome: excising the laggard lets the stability
		// frontier advance and every survivor's buffer drain to empty.
		if occ := m.Stability().Unstable(); occ != 0 {
			t.Fatalf("rank %d unstable buffer not drained: %d", r, occ)
		}
		if m.BlockedCount() != 0 {
			t.Fatalf("rank %d still has parked casts", r)
		}
	}
	// Virtual synchrony across the change: the survivors delivered the
	// same message set — everything offered, since Block parks rather
	// than drops and parked casts re-issue in the new view.
	for _, r := range survivors {
		if counts[r] != casts {
			t.Fatalf("rank %d delivered %d/%d", r, counts[r], casts)
		}
	}
}

// suspectWorld is an atomic causal group with a Monitor per member. A
// Suspect-policy member hands its accusations to its own Monitor, as a
// deployment wires multicast.Config.OnSuspect.
type suspectWorld struct {
	k        *sim.Kernel
	net      *transport.SimNet
	members  []*multicast.Member
	monitors []*Monitor
	counts   []int
}

func newSuspectWorld(n int, seed int64, link transport.LinkConfig, cfg multicast.Config, gcfg Config) *suspectWorld {
	k := sim.NewKernel(seed)
	k.SetEventLimit(20_000_000)
	w := &suspectWorld{k: k, net: transport.NewSimNet(k, link),
		members: make([]*multicast.Member, n), monitors: make([]*Monitor, n), counts: make([]int, n)}
	mux := transport.NewMux(w.net)
	nodes := make([]transport.NodeID, n)
	for i := range nodes {
		nodes[i] = transport.NodeID(i)
	}
	cfg.Group, cfg.Ordering, cfg.Atomic = "sus", multicast.Causal, true
	for i := range nodes {
		c := cfg
		if c.Overflow == flowcontrol.Suspect {
			c.OnSuspect = func(r vclock.ProcessID) { w.monitors[i].ForceSuspect(r) }
		}
		w.members[i] = multicast.NewMember(mux, nodes, vclock.ProcessID(i), c, func(multicast.Delivered) { w.counts[i]++ })
	}
	for i, m := range w.members {
		w.monitors[i] = NewMonitor(mux, m, "sus", gcfg)
	}
	for _, mon := range w.monitors {
		mon.Start()
	}
	return w
}

// burst has rank 0, the only writer, cast per messages from virtual
// time from on, one every 2 ms.
func (w *suspectWorld) burst(from time.Duration, per int) {
	for i := range per {
		w.k.At(from+time.Duration(i)*2*time.Millisecond, func() { w.members[0].Multicast(i, 32) })
	}
}

// viewChanges sums the views the given ranks' monitors installed.
func (w *suspectWorld) viewChanges(ranks ...int) uint64 {
	var v uint64
	for _, r := range ranks {
		v += w.monitors[r].Stats.ViewChanges.Value()
	}
	return v
}

// suspectCfg arms the Suspect policy, which acts only under a budget,
// with the default stall timeout.
var suspectCfg = multicast.Config{Budget: flowcontrol.Budget{MaxMsgs: 64}, Overflow: flowcontrol.Suspect}

// TestSuspectSparesLiveWriter runs one live writer in a healthy N=5
// Suspect group with the default Monitor, on a clean and a 2 %-loss
// link. Nobody lags and nobody falls silent, so nobody may be accused:
// the Suspect policy's only accusation is the admission stall's
// laggard, and the group must deliver every cast everywhere in the view
// it started with.
func TestSuspectSparesLiveWriter(t *testing.T) {
	const n, per = 5, 50
	for _, loss := range []float64{0, 0.02} {
		for seed := int64(1); seed <= 10; seed++ {
			t.Run(fmt.Sprintf("loss%g/seed%d", loss, seed), func(t *testing.T) {
				t.Parallel()
				link := transport.LinkConfig{BaseDelay: time.Millisecond, Jitter: time.Millisecond, LossProb: loss}
				w := newSuspectWorld(n, seed, link, suspectCfg, Config{})
				w.burst(0, per)
				w.k.RunUntil(3 * time.Second)
				for r, m := range w.members {
					if s := m.SuspectCount.Value(); s != 0 {
						t.Fatalf("rank %d raised %d accusations", r, s)
					}
					if v := w.viewChanges(r); v != 0 {
						t.Fatalf("rank %d installed %d views", r, v)
					}
					if w.counts[r] != per {
						t.Fatalf("rank %d delivered %d of %d", r, w.counts[r], per)
					}
				}
			})
		}
	}
}

// TestSuspectQuietIsNotSilence idles a Suspect group between bursts of
// traffic. A settled group is silent by design, and the Monitor's
// heartbeats carry on through the quiet, so 8 s of it excises nobody.
// A member that crashes during a second quiet is the Monitor's to
// catch: every survivor installs a view without it before traffic
// resumes, and the next burst reaches all of them.
func TestSuspectQuietIsNotSilence(t *testing.T) {
	const n, per, quiet = 5, 50, 8 * time.Second
	w := newSuspectWorld(n, 3, transport.LinkConfig{BaseDelay: time.Millisecond, Jitter: time.Millisecond}, suspectCfg, Config{})
	all := []int{0, 1, 2, 3, 4}
	w.burst(0, per)
	w.burst(quiet, per)
	w.k.RunUntil(quiet + time.Second)
	if v := w.viewChanges(all...); v != 0 {
		t.Fatalf("two bursts %v apart installed %d views", quiet, v)
	}
	for r := range w.members {
		if w.counts[r] != 2*per {
			t.Fatalf("rank %d delivered %d of %d", r, w.counts[r], 2*per)
		}
	}
	const dead = n - 1
	from := w.k.Now()
	w.k.At(from+time.Second, func() { w.net.Crash(transport.NodeID(dead)) })
	w.burst(from+quiet, per)
	w.k.RunUntil(from + quiet - time.Millisecond)
	survivors := all[:dead]
	for _, r := range survivors {
		m := w.members[r]
		if w.viewChanges(r) == 0 || m.GroupSize() != n-1 {
			t.Fatalf("rank %d has not excised the crashed rank %d before traffic resumed: %d views, size %d",
				r, dead, w.viewChanges(r), m.GroupSize())
		}
		for _, node := range m.ViewNodes() {
			if node == transport.NodeID(dead) {
				t.Fatalf("rank %d's view still holds the crashed node", r)
			}
		}
		if s := m.SuspectCount.Value(); s != 0 {
			t.Fatalf("rank %d raised %d accusations; silence is the Monitor's to detect", r, s)
		}
	}
	w.k.RunUntil(from + quiet + time.Second)
	for _, r := range survivors {
		if w.counts[r] != 3*per {
			t.Fatalf("rank %d delivered %d of %d", r, w.counts[r], 3*per)
		}
	}
}

// TestStatuszNamesStabilityLaggard slows node 3's inbound traffic in a
// Block-policy group, so the writer's admission window stalls against
// node 3's ack frontier, and reads the culprit back from /statusz alone:
// every on-time member names rank 3 as the stability laggard, and the
// message it waits for is the oldest cast the writer still holds
// unstable.
func TestStatuszNamesStabilityLaggard(t *testing.T) {
	const n, slow = 4, 3
	cfg := multicast.Config{Budget: flowcontrol.Budget{MaxMsgs: 12}, Overflow: flowcontrol.Block}
	w := newSuspectWorld(n, 11, transport.LinkConfig{BaseDelay: time.Millisecond}, cfg, Config{SuspectTimeout: 2 * time.Second})
	w.net.Slow(slow, 400*time.Millisecond)
	w.burst(0, 60)
	srv := new(live.Server)
	var oldest uint64
	const at = time.Second
	w.k.At(at, func() {
		if w.members[0].BlockedCount() == 0 {
			t.Errorf("the writer is not stalled at %v", at)
		}
		oldest = w.members[0].Stability().MinClock().Get(0) + 1
		ins := make([]obs.Introspector, n)
		for i, m := range w.members {
			ins[i] = m
		}
		srv.PublishStatus(obs.CollectStatus("cbcast", ins...))
	})
	w.k.RunUntil(at)

	req := httptest.NewRequest("GET", "/statusz", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	named := 0
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[1] != "multicast" || f[2] == fmt.Sprintf("node=%d", slow) {
			continue
		}
		if !slices.Contains(f, fmt.Sprintf("laggard=%d", slow)) {
			t.Fatalf("/statusz does not name rank %d: %q", slow, line)
		}
		if want := fmt.Sprintf("laggard_waits_for=0:%d", oldest); !slices.Contains(f, want) {
			t.Fatalf("/statusz does not name the blocking cast %s: %q", want, line)
		}
		named++
	}
	if named != n-1 {
		t.Fatalf("%d on-time members named the laggard, want %d:\n%s", named, n-1, rec.Body.String())
	}
}
