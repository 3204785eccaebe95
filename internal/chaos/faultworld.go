package chaos

import (
	"math/rand"
	"sort"
	"time"

	"catocs/internal/flowcontrol"
	"catocs/internal/metrics"
	"catocs/internal/mgcast"
	"catocs/internal/multicast"
	"catocs/internal/obs"
	"catocs/internal/scalecast"
	"catocs/internal/transport"
	"catocs/internal/vclock"
	"catocs/internal/wal"
)

// faultWorld runs one of Substrates on a static group over the fault
// Interposer, and audits the trace with the oracles that substrate
// advertises.
type faultWorld struct {
	e         *episode
	ip        *Interposer
	delivered uint64
	send      func(rank, i int)
	holdback  []*metrics.Gauge
	stabHigh  func() int64     // nil where there is no stability matrix
	dests     map[msgKey][]int // mgcast: each sent cast's destination nodes
	closers   []func()
}

func newFaultWorld(e *episode) *faultWorld {
	cfg := e.cfg
	net := transport.NewSimNet(e.k, transport.LinkConfig{
		BaseDelay: 2 * time.Millisecond,
		Jitter:    2 * time.Millisecond,
	})
	net.Instrument(e.tracer, nil, cfg.Substrate)
	w := &faultWorld{e: e, ip: NewInterposer(net, cfg.Seed^0x5eedfa01)}
	w.ip.SetDefault(cfg.Faults)
	deliverFor := func(vclock.ProcessID) multicast.DeliverFunc {
		return func(multicast.Delivered) { w.delivered++ }
	}

	switch cfg.Substrate {
	case "cbcast", "abcast":
		ordering := multicast.Causal
		if cfg.Substrate == "abcast" {
			ordering = multicast.TotalCausal
		}
		mcfg := multicast.Config{
			Group:    "chaos",
			Ordering: ordering,
			Atomic:   true, // stability tracking + ack/NACK loss recovery
			Tracer:   e.tracer,
			Budget:   cfg.Budget,
			Overflow: cfg.Overflow,
		}
		if cfg.Overflow == flowcontrol.Spill {
			mcfg.SpillDevice = wal.NewDevice()
		}
		members := multicast.NewGroup(w.ip, e.nodes, mcfg, deliverFor)
		w.send = func(rank, i int) { members[rank].Multicast(i, chaosPayloadBytes) }
		for _, m := range members {
			w.holdback = append(w.holdback, &m.HoldbackGauge)
			w.closers = append(w.closers, m.Close)
		}
		w.stabHigh = func() int64 {
			var max int64
			for _, m := range members {
				if s := m.Stability(); s != nil {
					if v := s.HighWater(); v > max {
						max = v
					}
				}
			}
			return max
		}
	case "scalecast":
		members := scalecast.NewGroup(w.ip, e.nodes, scalecast.Config{
			Group:    "chaos",
			Degree:   cfg.Degree,
			Tracer:   e.tracer,
			Budget:   cfg.Budget,
			Overflow: cfg.Overflow,
		}, deliverFor)
		w.send = func(rank, i int) { members[rank].Multicast(i, chaosPayloadBytes) }
		for _, m := range members {
			w.holdback = append(w.holdback, &m.HoldbackGauge)
			w.closers = append(w.closers, m.Close)
		}
	case "mgcast":
		gsize := cfg.N / 2
		if gsize < 2 {
			gsize = 2
		}
		table := mgcast.WrapGroups(cfg.N, cfg.Groups, gsize)
		names := mgcast.GroupNames(cfg.Groups)
		members := mgcast.NewUniverse(w.ip, e.nodes, mgcast.Config{
			Groups:   table,
			Tracer:   e.tracer,
			Budget:   cfg.Budget.Share(cfg.Senders),
			Overflow: cfg.Overflow,
		}, func(vclock.ProcessID) mgcast.DeliverFunc {
			return func(mgcast.Delivered) { w.delivered++ }
		})
		// Destination picks are drawn up front from the episode seed so
		// the schedule replays bit-identically.
		pickRng := rand.New(rand.NewSource(cfg.Seed ^ 0x6d67636173)) // "mgcas"
		picks := make([][][]string, cfg.Senders)
		for s := range picks {
			picks[s] = make([][]string, cfg.MsgsPer)
			for i := range picks[s] {
				picks[s][i] = pickGroups(pickRng, names, cfg.K)
			}
		}
		w.dests = make(map[msgKey][]int)
		w.send = func(rank, i int) {
			id := members[rank].Multicast(picks[rank][i], i, chaosPayloadBytes)
			if id != (mgcast.MsgID{}) {
				ranks := members[rank].DestRanks(picks[rank][i])
				ds := make([]int, len(ranks))
				for j, r := range ranks {
					ds[j] = int(r)
				}
				w.dests[msgKey{Sender: int64(id.Sender), Seq: id.Seq}] = ds
			}
		}
		for _, m := range members {
			w.holdback = append(w.holdback, &m.HoldbackGauge)
			w.closers = append(w.closers, m.Close)
		}
	}
	return w
}

func (w *faultWorld) cast(s, i int) bool {
	if w.ip.Crashed(transport.NodeID(s)) {
		return false
	}
	w.send(s, i)
	return true
}

func (w *faultWorld) apply(op Op) {
	switch op.Kind {
	case OpCrash:
		w.ip.Crash(op.Node)
	case OpRecover:
		w.ip.Recover(op.Node)
	case OpPartition:
		w.ip.Partition(op.Islands...)
	case OpHeal:
		w.ip.Heal()
	case OpLink:
		w.ip.SetLink(op.From, op.To, op.Fault)
	case OpClearLink:
		w.ip.ClearLink(op.From, op.To)
	case OpSlow:
		w.ip.Slow(op.Node, op.Lag)
	case OpFast:
		w.ip.Fast(op.Node)
	}
}

func (w *faultWorld) finish(events []obs.Event, res *Result) {
	cfg := w.e.cfg
	res.Delivered = w.delivered
	res.Faults = w.ip.Stats()
	for _, g := range w.holdback {
		res.MaxHoldback = max(res.MaxHoldback, g.Max())
	}
	if w.stabHigh != nil {
		res.StabHighWater = w.stabHigh()
	}
	ranks := w.e.ranks
	crashed := cfg.Script.CrashedNodes()
	orders := DeliveryOrders(events)
	if cfg.Substrate == "mgcast" {
		// Skeen's agreement promises a single global timestamp order
		// across overlapping destination sets — the acyclicity oracle —
		// plus delivery at exactly the destination members. It does NOT
		// promise causal (or even per-sender FIFO) order: concurrent
		// proposals can finalise against send order, so the causal,
		// same-set, and stability oracles do not apply. Casts parked by
		// a Block window at episode end have no recorded destinations
		// and are skipped by the dest oracle.
		res.Violations = append(res.Violations, CheckAcyclicOrder(orders)...)
		res.Violations = append(res.Violations, CheckDestLiveness(events, func(sender int64, seq uint64) []int {
			return w.dests[msgKey{Sender: sender, Seq: seq}]
		}, crashed)...)
	} else {
		res.Violations = append(res.Violations, CheckCausalOrder(events)...)
		if cfg.Substrate == "abcast" {
			res.Violations = append(res.Violations, CheckTotalOrder(orders)...)
			// The cross-group acyclicity oracle degenerates to pairwise
			// total order within one group; run it too so both oracles
			// audit the same trace.
			res.Violations = append(res.Violations, CheckAcyclicOrder(orders)...)
		}
		res.Violations = append(res.Violations, CheckSameSet(orders, ranks)...)
		res.Violations = append(res.Violations, CheckLiveness(events, ranks, crashed)...)
		if cfg.Substrate != "scalecast" {
			res.Violations = append(res.Violations, CheckStabilitySafety(events, ranks)...)
			// Scalecast's budget bounds its retransmission logs, not the
			// holdback/stability pair this oracle audits; its bound is
			// asserted by the package's own tests.
			res.Violations = append(res.Violations, CheckBoundedMemory(res.MaxHoldback, res.StabHighWater, cfg.Budget, cfg.Overflow)...)
		}
	}
	if (cfg.Substrate == "cbcast" || cfg.Substrate == "abcast") && cfg.Script.Whole() {
		res.Violations = append(res.Violations, CheckQuiescent(w.e.k, quiesceSpan)...)
	}
	for _, c := range w.closers {
		c()
	}
}

// quiesceSpan is how much longer a settled episode runs for the
// quiescence oracle.
const quiesceSpan = time.Second

// pickGroups draws k distinct group names from names.
func pickGroups(rng *rand.Rand, names []string, k int) []string {
	if k >= len(names) {
		return append([]string(nil), names...)
	}
	idx := rng.Perm(len(names))[:k]
	sort.Ints(idx)
	out := make([]string, k)
	for i, j := range idx {
		out[i] = names[j]
	}
	return out
}

// chaosPayloadBytes matches the E16/E17 payload model.
const chaosPayloadBytes = 64
