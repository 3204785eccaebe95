package experiments

import (
	"encoding/json"
	"math/rand"
	"sort"
	"time"

	"catocs/internal/chaos"
	"catocs/internal/mgcast"
	"catocs/internal/multicast"
	"catocs/internal/obs"
	"catocs/internal/sim"
	"catocs/internal/transport"
	"catocs/internal/vclock"
)

// E20 — multi-group atomic multicast vs the one-big-group fallback.
// The paper's §5 scalability complaint is that ISIS-style ABCAST
// totally orders only within a single group, so a workload whose
// messages address small overlapping subsets must either collapse
// everything into one big group (every process receives and orders
// every message) or give up cross-group consistency. This experiment
// measures the price of the collapse against Skeen-style genuine
// multicast (internal/mgcast), which delivers only at destination
// members yet still yields one acyclic global order.
//
// Setup: N wraparound groups of size max(3, N/8) over N nodes; every
// node sends on the E16 schedule, each cast addressed to k groups
// drawn from a shared seed — identical destination sets in both arms.
// The network charges a per-message receive service time (SimNet
// SetServiceTime), so "every node processes every message" is a cost,
// not a free abstraction. Latency is measured only at destination
// members ("relevant" deliveries) — the one-big-group arm delivers
// everywhere, but only the destinations matter to the application.
// Consistency is audited by the chaos cross-group oracles on the same
// traces.

// e20Service is the per-message receive processing cost. At the E16
// send rate it puts the one-big-group arm past its service capacity at
// N=128 while genuine multicast, handling only its destination share,
// stays below saturation — the load-coupling half of the §5 argument.
const e20Service = 30 * time.Microsecond

// e20GroupSize returns the member count of each overlapping group.
func e20GroupSize(n int) int {
	if s := n / 8; s > 3 {
		return s
	}
	return 3
}

// E20Point is one (substrate, N, k) measurement.
type E20Point struct {
	Substrate   string `json:"substrate"` // "mgcast" | "biggroup"
	N           int    `json:"n"`
	K           int    `json:"k"`
	GroupsTotal int    `json:"groups_total"`
	GroupSize   int    `json:"group_size"`
	Casts       uint64 `json:"casts"`
	// Relevant counts decomposed deliveries at destination members
	// (origin-local deliveries carry no wire leg and are excluded in
	// both arms).
	Relevant int `json:"relevant_deliveries"`
	// Latency statistics over relevant deliveries, seconds.
	LatMean float64 `json:"lat_mean_s"`
	LatP99  float64 `json:"lat_p99_s"`
	// HoldShare is ordering holdback's share of relevant latency.
	HoldShare float64 `json:"hold_share"`
	// Wire totals for the whole run (biggroup's are k-independent: one
	// big group cannot exploit the destination sets).
	WireMsgs  uint64 `json:"wire_msgs"`
	WireBytes uint64 `json:"wire_bytes"`
	// DelivPerNode is application deliveries each node processed,
	// relevant or not — the per-process load the substrate imposes.
	DelivPerNode float64 `json:"deliveries_per_node"`
	// Violations counts cross-group ordering-oracle findings (the
	// acyclicity oracle, plus dest-liveness for mgcast).
	Violations int `json:"order_violations"`
}

// JSON renders the point as one JSON line for machine consumers.
func (p E20Point) JSON() string {
	b, _ := json.Marshal(p)
	return string(b)
}

// e20Key identifies an application message in trace terms.
type e20Key struct {
	Sender int64
	Seq    uint64
}

// e20Picks draws each sender's per-cast destination-group sets. Both
// arms share one draw, so "relevant" means the same thing everywhere.
func e20Picks(n, k, msgsPer int, seed int64) [][][]string {
	names := mgcast.GroupNames(n)
	if k > len(names) {
		k = len(names)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x653230))
	picks := make([][][]string, n)
	for s := range picks {
		picks[s] = make([][]string, msgsPer)
		for i := range picks[s] {
			idx := rng.Perm(len(names))[:k]
			sort.Ints(idx)
			gs := make([]string, k)
			for j, gi := range idx {
				gs[j] = names[gi]
			}
			picks[s][i] = gs
		}
	}
	return picks
}

// e20Net builds the shared network: E16's lossless 2ms±2ms links plus
// the per-node receive service time.
func e20Net(seed int64, substrate string) (*sim.Kernel, *transport.SimNet, *obs.Tracer) {
	k := sim.NewKernel(seed)
	k.SetEventLimit(500_000_000)
	net := transport.NewSimNet(k, transport.LinkConfig{
		BaseDelay: 2 * time.Millisecond,
		Jitter:    2 * time.Millisecond,
	})
	net.SetServiceTime(e20Service)
	tracer := obsHookTracer(obs.NewTracer())
	net.Instrument(tracer, obsHookRegistry(), substrate)
	return k, net, tracer
}

// e20Schedule fires every sender's casts on the E16 cadence and runs
// the kernel to quiescence.
func e20Schedule(k *sim.Kernel, n, msgsPer int, cast func(s, i int)) {
	for s := 0; s < n; s++ {
		for i := 0; i < msgsPer; i++ {
			s, i := s, i
			k.At(time.Duration(i)*e16Interval+time.Duration(s)*100*time.Microsecond, func() {
				cast(s, i)
			})
		}
	}
	horizon := time.Duration(msgsPer)*e16Interval + time.Duration(n)*100*time.Microsecond
	k.RunUntil(horizon + 3*time.Second)
}

// e20Relevant filters a latency breakdown down to deliveries at
// destination members and summarises them.
func e20Relevant(bd *obs.Breakdown, dests map[e20Key][]vclock.ProcessID) (count int, mean, p99, holdShare float64) {
	var lat []float64
	var netSum, holdSum float64
	for _, s := range bd.Samples {
		ranks, ok := dests[e20Key{Sender: s.Msg.Sender, Seq: s.Msg.Seq}]
		if !ok {
			continue
		}
		isDest := false
		for _, r := range ranks {
			if int(r) == s.Node {
				isDest = true
				break
			}
		}
		if !isDest {
			continue
		}
		lat = append(lat, (s.Net + s.Hold).Seconds())
		netSum += s.Net.Seconds()
		holdSum += s.Hold.Seconds()
	}
	if len(lat) == 0 {
		return 0, 0, 0, 0
	}
	sort.Float64s(lat)
	var sum float64
	for _, v := range lat {
		sum += v
	}
	idx := int(float64(len(lat))*0.99) - 1
	if idx < 0 {
		idx = 0
	}
	share := 0.0
	if netSum+holdSum > 0 {
		share = holdSum / (netSum + holdSum)
	}
	return len(lat), sum / float64(len(lat)), lat[idx], share
}

// RunE20MGcast runs the genuine-multicast arm at one (N, k).
func RunE20MGcast(n, k, msgsPer int, seed int64) E20Point {
	kern, net, tracer := e20Net(seed, "mgcast")
	table := mgcast.WrapGroups(n, n, e20GroupSize(n))
	nodes := make([]transport.NodeID, n)
	for i := range nodes {
		nodes[i] = transport.NodeID(i)
	}
	var delivered uint64
	universe := mgcast.NewUniverse(net, nodes, mgcast.Config{
		Groups: table,
		Tracer: tracer,
	}, func(vclock.ProcessID) mgcast.DeliverFunc {
		return func(mgcast.Delivered) { delivered++ }
	})
	intros := make([]obs.Introspector, len(universe))
	for i, m := range universe {
		intros[i] = m
	}
	obsHookPublish(kern, "mgcast", intros...)
	defer func() {
		for _, m := range universe {
			m.Close()
		}
	}()

	picks := e20Picks(n, k, msgsPer, seed)
	dests := make(map[e20Key][]vclock.ProcessID)
	e20Schedule(kern, n, msgsPer, func(s, i int) {
		id := universe[s].Multicast(picks[s][i], i, e16PayloadBytes)
		dests[e20Key{Sender: int64(id.Sender), Seq: id.Seq}] = universe[s].DestRanks(picks[s][i])
	})

	events := tracer.Events()
	bd := obs.AnalyzeLatency(events)
	count, mean, p99, hold := e20Relevant(bd, dests)
	violations := len(chaos.CheckAcyclicOrder(chaos.DeliveryOrders(events)))
	violations += len(chaos.CheckDestLiveness(events, func(sender int64, seq uint64) []int {
		ranks, ok := dests[e20Key{Sender: sender, Seq: seq}]
		if !ok {
			return nil
		}
		out := make([]int, len(ranks))
		for i, r := range ranks {
			out[i] = int(r)
		}
		return out
	}, nil))
	st := net.Stats()
	return E20Point{
		Substrate: "mgcast", N: n, K: k,
		GroupsTotal: n, GroupSize: e20GroupSize(n),
		Casts:    uint64(n * msgsPer),
		Relevant: count, LatMean: mean, LatP99: p99, HoldShare: hold,
		WireMsgs: st.Sent, WireBytes: st.Bytes,
		DelivPerNode: float64(delivered) / float64(n),
		Violations:   violations,
	}
}

// e20BigGroupRun is the one-big-group arm's raw material: its run does
// not depend on k, so RunE20 executes it once per N and re-filters the
// breakdown for each k's destination sets.
type e20BigGroupRun struct {
	bd         *obs.Breakdown
	ids        map[[2]int]e20Key // (sender rank, msg index) -> trace key
	stats      transport.Stats
	delivered  uint64
	violations int
}

func runE20BigGroup(n, msgsPer int, seed int64) e20BigGroupRun {
	kern, net, tracer := e20Net(seed, "biggroup")
	nodes := make([]transport.NodeID, n)
	for i := range nodes {
		nodes[i] = transport.NodeID(i)
	}
	var delivered uint64
	members := multicast.NewGroup(net, nodes, multicast.Config{
		Group:    "e20",
		Ordering: multicast.TotalCausal,
		Tracer:   tracer,
	}, func(vclock.ProcessID) multicast.DeliverFunc {
		return func(multicast.Delivered) { delivered++ }
	})
	defer closeAll(members)

	ids := make(map[[2]int]e20Key)
	e20Schedule(kern, n, msgsPer, func(s, i int) {
		id := members[s].Multicast(i, e16PayloadBytes)
		ids[[2]int{s, i}] = e20Key{Sender: int64(id.Sender), Seq: id.Seq}
	})

	events := tracer.Events()
	orders := chaos.DeliveryOrders(events)
	return e20BigGroupRun{
		bd:         obs.AnalyzeLatency(events),
		ids:        ids,
		stats:      net.Stats(),
		delivered:  delivered,
		violations: len(chaos.CheckTotalOrder(orders)) + len(chaos.CheckAcyclicOrder(orders)),
	}
}

// bigGroupPoint filters the shared big-group run for one k.
func (r e20BigGroupRun) point(n, k, msgsPer int, seed int64) E20Point {
	table := mgcast.WrapGroups(n, n, e20GroupSize(n))
	picks := e20Picks(n, k, msgsPer, seed)
	dests := make(map[e20Key][]vclock.ProcessID)
	for s := 0; s < n; s++ {
		for i := 0; i < msgsPer; i++ {
			if key, ok := r.ids[[2]int{s, i}]; ok {
				dests[key] = mgcast.ResolveDests(table, picks[s][i])
			}
		}
	}
	count, mean, p99, hold := e20Relevant(r.bd, dests)
	return E20Point{
		Substrate: "biggroup", N: n, K: k,
		GroupsTotal: n, GroupSize: e20GroupSize(n),
		Casts:    uint64(n * msgsPer),
		Relevant: count, LatMean: mean, LatP99: p99, HoldShare: hold,
		WireMsgs: r.stats.Sent, WireBytes: r.stats.Bytes,
		DelivPerNode: float64(r.delivered) / float64(n),
		Violations:   r.violations,
	}
}

// RunE20 measures both arms at one N across the k sweep. The big-group
// arm runs once (its behaviour cannot depend on k) and is re-filtered
// per k; the mgcast arm runs per k because its traffic genuinely
// changes with the destination sets.
func RunE20(n int, ks []int, msgsPer int, seed int64) []E20Point {
	big := runE20BigGroup(n, msgsPer, seed)
	var pts []E20Point
	for _, k := range ks {
		pts = append(pts, RunE20MGcast(n, k, msgsPer, seed))
		pts = append(pts, big.point(n, k, msgsPer, seed))
	}
	return pts
}

// RunE20Sweep runs the full (N, k) grid.
func RunE20Sweep(sizes, ks []int, msgsPer int, seed int64) []E20Point {
	var pts []E20Point
	for _, n := range sizes {
		pts = append(pts, RunE20(n, ks, msgsPer, seed)...)
	}
	return pts
}

// TableE20From renders already-computed points.
func TableE20From(pts []E20Point) *Table {
	t := &Table{
		ID:    "E20",
		Title: "Multi-group multicast vs one big group: latency and load at destination members (§5)",
		Claim: "ISIS-style total order stops at the group boundary, so a workload whose messages address small overlapping subsets must collapse into one big group — every process receives, orders, and services every message — or lose cross-group consistency; Skeen-style genuine multicast keeps delivery acyclic across groups while involving only destination members",
		Headers: []string{"substrate", "N", "k", "casts", "relevant", "lat mean ms", "lat p99 ms",
			"hold share", "wire msgs", "wire MB", "deliv/node", "violations"},
	}
	for _, pt := range pts {
		t.Rows = append(t.Rows, []string{
			pt.Substrate, fmtI(pt.N), fmtI(pt.K), fmtU(pt.Casts), fmtI(pt.Relevant),
			fmtMs(pt.LatMean), fmtMs(pt.LatP99), fmtF(pt.HoldShare),
			fmtU(pt.WireMsgs), fmtF(float64(pt.WireBytes) / (1 << 20)), fmtF(pt.DelivPerNode),
			fmtI(pt.Violations),
		})
	}
	t.Notes = append(t.Notes,
		"setup: N wraparound groups of size max(3, N/8) over N nodes; every node sends casts ÷ N casts at 5 ms spacing, each addressed to k groups drawn from a shared seed, so both arms see identical destination sets; each node pays a 30 µs receive service time per message (SimNet SetServiceTime), pricing in the §5 load coupling; latency is measured at destination members only; full sweep: `go run ./cmd/scalebench -exp mgcast -sizes 8,32,128 -ks 1,2,4,8 -msgs 20`",
		"mgcast is Skeen two-phase timestamp agreement (internal/mgcast): data → every destination proposes a Lamport stamp → the sender commits the max → destinations deliver in final-stamp order with holdback; final stamps are globally unique, so the delivery order is one total order restricted to each message's destinations — acyclic across overlapping groups by construction. The biggroup arm is the one-big-group ABCAST fallback (TotalCausal sequencer): same consistency, but every node orders and services every cast",
		"biggroup rows repeat one k-independent run re-filtered per k: one big group cannot exploit destination sets by construction",
		"violations: cross-group acyclicity oracle (union of every node's pairwise delivery precedences must be cycle-free) plus destination liveness (deliver at every live destination, nowhere else) on each run's own trace; `go run ./cmd/chaos -substrate mgcast -n 8 -msgs 20 -episodes 100 -seed 1` runs both oracles over 100 randomized crash/partition/flaky-link episodes")
	return t
}

// TableE20 runs the sweep and renders it.
func TableE20(sizes, ks []int, msgsPer int, seed int64) *Table {
	return TableE20From(RunE20Sweep(sizes, ks, msgsPer, seed))
}
