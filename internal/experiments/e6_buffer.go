package experiments

import (
	"time"

	"catocs/internal/causalgraph"
	"catocs/internal/multicast"
	"catocs/internal/sim"
	"catocs/internal/transport"
	"catocs/internal/vclock"
	"catocs/internal/workload"
)

// E6 — buffering and causal-graph growth (§5). A causal atomic group
// of N members runs a fixed per-member multicast rate over a lossy
// network. Every member buffers every message until stability; an
// omniscient observer maintains the active causal graph (nodes =
// unstable messages, arcs = potential-causality pairs) and censuses it
// periodically. The paper predicts per-node buffering grows roughly
// linearly in N (system-wide quadratic) and arcs grow quadratically
// in active messages.

// E6Point is one sweep point.
type E6Point struct {
	N int
	// PeakBufPerNode is the maximum unstable-buffer occupancy at any
	// single member.
	PeakBufPerNode int64
	// MeanBufPerNode is the time-averaged occupancy at member 0.
	MeanBufPerNode float64
	// TotalPeakBuf sums peak occupancy across members (system-wide
	// buffering).
	TotalPeakBuf int64
	// PeakGraphNodes / PeakGraphArcs census the active causal graph.
	PeakGraphNodes int
	PeakGraphArcs  int
	// CtrlMsgs counts acknowledgement/NACK traffic.
	CtrlMsgs uint64
}

// RunE6 measures one group size. Each member multicasts msgs messages
// at the given interval; loss forces retransmission and delays
// stability.
func RunE6(n, msgs int, interval time.Duration, loss float64, seed int64) E6Point {
	k := sim.NewKernel(seed)
	k.SetEventLimit(100_000_000)
	net := transport.NewSimNet(k, transport.LinkConfig{
		BaseDelay: 2 * time.Millisecond,
		Jitter:    4 * time.Millisecond,
		LossProb:  loss,
	})
	nodes := make([]transport.NodeID, n)
	for i := range nodes {
		nodes[i] = transport.NodeID(i)
	}
	graph := causalgraph.New()
	var members []*multicast.Member
	members = multicast.NewGroup(net, nodes,
		multicast.Config{Group: "e6", Ordering: multicast.Causal, Atomic: true,
			AckInterval: 15 * time.Millisecond, NackDelay: 15 * time.Millisecond},
		func(rank vclock.ProcessID) multicast.DeliverFunc {
			if rank != 0 {
				return nil
			}
			// The rank-0 observer feeds the omniscient causal graph:
			// one node per message, added at first delivery.
			return func(d multicast.Delivered) {
				if d.VC != nil {
					graph.Add(d.ID, d.VC)
				}
			}
		})

	pt := E6Point{N: n}
	var bufSamples, bufSum float64
	census := func() {
		// Prune at member 0's stability frontier, then census.
		if st := members[0].Stability(); st != nil {
			graph.Prune(st.MinClock())
		}
		nodesN, arcs := graph.Census()
		if nodesN > pt.PeakGraphNodes {
			pt.PeakGraphNodes = nodesN
		}
		if arcs > pt.PeakGraphArcs {
			pt.PeakGraphArcs = arcs
		}
		bufSamples++
		bufSum += float64(members[0].Stability().Occupancy())
	}
	horizon := time.Duration(msgs)*interval + 2*time.Second
	for t := 10 * time.Millisecond; t < horizon; t += 10 * time.Millisecond {
		k.At(t, census)
	}

	for s := 0; s < n; s++ {
		for i := 0; i < msgs; i++ {
			s, i := s, i
			k.At(time.Duration(i)*interval+time.Duration(s)*100*time.Microsecond, func() {
				members[s].Multicast(i, 64)
			})
		}
	}
	k.RunUntil(horizon)
	for _, m := range members {
		m.Close()
	}

	for _, m := range members {
		hw := m.Stability().HighWater()
		pt.TotalPeakBuf += hw
		if hw > pt.PeakBufPerNode {
			pt.PeakBufPerNode = hw
		}
		pt.CtrlMsgs += m.CtrlMsgs.Value()
	}
	if bufSamples > 0 {
		pt.MeanBufPerNode = bufSum / bufSamples
	}
	return pt
}

// TableE6 sweeps group size at fixed per-member rate.
func TableE6(sizes []int, msgs int, loss float64, seed int64) *Table {
	t := &Table{
		ID:    "E6",
		Title: "Unstable-message buffering and active causal graph vs group size (§5)",
		Claim: "per-node buffering grows ~linearly with N (quadratic system-wide); causal-graph arcs grow quadratically in active messages",
		Headers: []string{"N", "peak buf/node", "mean buf (node 0)", "total peak buf",
			"peak graph nodes", "peak graph arcs", "ctrl msgs"},
	}
	for _, n := range sizes {
		pt := RunE6(n, msgs, 5*time.Millisecond, loss, seed)
		t.Rows = append(t.Rows, []string{
			fmtI(pt.N), fmtI(int(pt.PeakBufPerNode)), fmtF(pt.MeanBufPerNode),
			fmtI(int(pt.TotalPeakBuf)), fmtI(pt.PeakGraphNodes), fmtI(pt.PeakGraphArcs),
			fmtU(pt.CtrlMsgs),
		})
	}
	t.Notes = append(t.Notes,
		"fixed per-member send rate: total offered load grows with N, as in the paper's model")
	return t
}

// RunE6Shaped repeats the buffering census under a chosen traffic
// shape ("uniform", "poisson", "bursty") at the same mean rate,
// measuring the sensitivity of the §5 buffering claims to burstiness.
func RunE6Shaped(n, msgs int, shape string, loss float64, seed int64) E6Point {
	k := sim.NewKernel(seed)
	k.SetEventLimit(100_000_000)
	net := transport.NewSimNet(k, transport.LinkConfig{
		BaseDelay: 2 * time.Millisecond,
		Jitter:    4 * time.Millisecond,
		LossProb:  loss,
	})
	nodes := make([]transport.NodeID, n)
	for i := range nodes {
		nodes[i] = transport.NodeID(i)
	}
	members := multicast.NewGroup(net, nodes,
		multicast.Config{Group: "e6s", Ordering: multicast.Causal, Atomic: true,
			AckInterval: 15 * time.Millisecond, NackDelay: 15 * time.Millisecond},
		func(vclock.ProcessID) multicast.DeliverFunc { return nil })

	const meanInterval = 5 * time.Millisecond
	for s := 0; s < n; s++ {
		s := s
		var arr workload.Arrivals
		start := time.Duration(s) * 100 * time.Microsecond
		switch shape {
		case "poisson":
			arr = &workload.Poisson{Start: start, Rate: float64(time.Second / meanInterval), Rng: k.Rand()}
		case "bursty":
			// Ten messages back-to-back, then silence: same mean rate,
			// tenfold peak rate.
			arr = &workload.Bursty{Start: start, OnInterval: meanInterval / 10,
				BurstLen: 10, OffDuration: 9 * meanInterval}
		default:
			arr = &workload.Uniform{Start: start, Interval: meanInterval}
		}
		for _, at := range workload.Take(arr, msgs) {
			k.At(at, func() { members[s].Multicast(0, 64) })
		}
	}
	horizon := time.Duration(msgs)*meanInterval + 3*time.Second
	k.RunUntil(horizon)
	for _, m := range members {
		m.Close()
	}
	pt := E6Point{N: n}
	for _, m := range members {
		hw := m.Stability().HighWater()
		pt.TotalPeakBuf += hw
		if hw > pt.PeakBufPerNode {
			pt.PeakBufPerNode = hw
		}
		pt.CtrlMsgs += m.CtrlMsgs.Value()
	}
	return pt
}

// TableE6Traffic sweeps traffic shapes at one group size.
func TableE6Traffic(n, msgs int, seed int64) *Table {
	t := &Table{
		ID:      "E6c",
		Title:   "Ablation: buffering sensitivity to traffic shape (§5 model assumes uniform rates)",
		Claim:   "the quadratic-buffering argument uses fixed per-process rates; bursty sources concentrate unstable messages and push peaks higher",
		Headers: []string{"shape", "N", "peak buf/node", "total peak buf", "ctrl msgs"},
	}
	for _, shape := range []string{"uniform", "poisson", "bursty"} {
		// Lossless links isolate the shape effect: with loss, recovery
		// buffering dominates and masks it.
		pt := RunE6Shaped(n, msgs, shape, 0, seed)
		t.Rows = append(t.Rows, []string{
			shape, fmtI(pt.N), fmtI(int(pt.PeakBufPerNode)), fmtI(int(pt.TotalPeakBuf)), fmtU(pt.CtrlMsgs),
		})
	}
	t.Notes = append(t.Notes, "lossless links: the buffering here is pure stability lag, the §5 quantity")
	return t
}

// E6Partition measures the §5 remark that splitting one large group
// into causally chained subgroups does not remove the growth: a relay
// member bridges g subgroups, so causal dependencies flow across all
// of them.
type E6PartitionPoint struct {
	Groups         int
	MembersPer     int
	PeakBufPerNode int64
	TotalPeakBuf   int64
}

// RunE6Partition builds g subgroups of m members sharing one bridge
// member that re-multicasts everything it delivers from group i into
// group i+1 (a "causal domain" chain).
func RunE6Partition(g, m, msgs int, loss float64, seed int64) E6PartitionPoint {
	k := sim.NewKernel(seed)
	k.SetEventLimit(100_000_000)
	net := transport.NewSimNet(k, transport.LinkConfig{
		BaseDelay: 2 * time.Millisecond, Jitter: 4 * time.Millisecond, LossProb: loss,
	})
	mux := transport.NewMux(net)

	// Node ids: group i occupies [i*m, (i+1)*m); node 0 of each group
	// is the shared bridge's address in that group... a single physical
	// bridge needs one address per group: use node i*m for group i and
	// treat them as one logical process by chaining deliveries.
	type gref struct{ members []*multicast.Member }
	groups := make([]*gref, g)
	for gi := 0; gi < g; gi++ {
		gi := gi
		nodes := make([]transport.NodeID, m)
		for j := range nodes {
			nodes[j] = transport.NodeID(gi*m + j)
		}
		gr := &gref{}
		groups[gi] = gr
		name := "pg" + string(rune('a'+gi))
		gr.members = multicast.NewGroup(mux, nodes,
			multicast.Config{Group: name, Ordering: multicast.Causal, Atomic: true,
				AckInterval: 15 * time.Millisecond, NackDelay: 15 * time.Millisecond},
			func(rank vclock.ProcessID) multicast.DeliverFunc {
				if rank != 0 {
					return nil
				}
				// The bridge (rank 0 of each group) relays into the next
				// group, chaining the causal domains.
				return func(d multicast.Delivered) {
					if gi+1 < g {
						if v, ok := d.Payload.(int); ok && v >= 0 {
							groups[gi+1].members[0].Multicast(v, 64)
						}
					}
				}
			})
	}

	// Workload: members of group 0 send; traffic relays down the chain.
	for s := 1; s < m; s++ {
		for i := 0; i < msgs; i++ {
			s, i := s, i
			k.At(time.Duration(i)*5*time.Millisecond+time.Duration(s)*100*time.Microsecond, func() {
				groups[0].members[s].Multicast(i, 64)
			})
		}
	}
	horizon := time.Duration(msgs)*5*time.Millisecond + 3*time.Second
	k.RunUntil(horizon)

	pt := E6PartitionPoint{Groups: g, MembersPer: m}
	for _, gr := range groups {
		for _, mem := range gr.members {
			mem.Close()
			hw := mem.Stability().HighWater()
			pt.TotalPeakBuf += hw
			if hw > pt.PeakBufPerNode {
				pt.PeakBufPerNode = hw
			}
		}
	}
	return pt
}

// TableE6Partition sweeps the number of chained subgroups.
func TableE6Partition(groupCounts []int, membersPer, msgs int, seed int64) *Table {
	t := &Table{
		ID:      "E6b",
		Title:   "Ablation: partitioning into causally chained subgroups (§5 'causal domain')",
		Claim:   "dividing into groups reduces per-receiver traffic but not delivery delays or aggregate buffering when groups are causally related",
		Headers: []string{"chained groups", "members/group", "peak buf/node", "total peak buf"},
	}
	for _, g := range groupCounts {
		pt := RunE6Partition(g, membersPer, msgs, 0.05, seed)
		t.Rows = append(t.Rows, []string{
			fmtI(pt.Groups), fmtI(pt.MembersPer), fmtI(int(pt.PeakBufPerNode)), fmtI(int(pt.TotalPeakBuf)),
		})
	}
	return t
}
