package experiments

import (
	"time"

	"catocs/internal/metrics"
	"catocs/internal/mgcast"
	"catocs/internal/multicast"
	"catocs/internal/sim"
	"catocs/internal/transport"
	"catocs/internal/vclock"
)

// Ablation: fixed-sequencer vs Skeen-agreement total order. The
// sequencer costs one extra hop through a central member (and loads
// it); the agreement protocol spreads load but needs a propose/commit
// round trip per message. DESIGN.md lists this as a design choice
// worth quantifying. The sequencer arms run internal/multicast; the
// agreement arm runs internal/mgcast with one group spanning every
// rank, so its control count includes the commit acknowledgements
// that make it loss tolerant.

// AblationTotalPoint is one group size's comparison.
type AblationTotalPoint struct {
	N                int
	SeqMeanMs        float64
	AgreeMeanMs      float64
	CausalTotalMs    float64
	SeqCtrlMsgs      uint64
	AgreeCtrlMsgs    uint64
	SequencerLoadPct float64 // share of all ctrl traffic emitted by the sequencer
}

// RunAblationTotal measures one group size. Every arm runs the same
// kernel seed, link and cast schedule.
func RunAblationTotal(n, msgsPerSender int, seed int64) AblationTotalPoint {
	pt := AblationTotalPoint{N: n}
	for _, ord := range []multicast.Ordering{multicast.TotalSeq, multicast.TotalCausal} {
		var lat metrics.Histogram
		var members []*multicast.Member
		runAblationArm(n, msgsPerSender, seed, func(net transport.Network, nodes []transport.NodeID) func(s, i int) {
			members = multicast.NewGroup(net, nodes, multicast.Config{Group: "abl", Ordering: ord},
				func(rank vclock.ProcessID) multicast.DeliverFunc {
					return func(d multicast.Delivered) { lat.Observe(d.Latency.Seconds()) }
				})
			return func(s, i int) { members[s].Multicast(i, 32) }
		})
		var ctrl uint64
		for _, m := range members {
			ctrl += m.CtrlMsgs.Value()
		}
		switch ord {
		case multicast.TotalSeq:
			pt.SeqMeanMs = lat.Mean() * 1000
			pt.SeqCtrlMsgs = ctrl
			if ctrl > 0 {
				pt.SequencerLoadPct = 100 * float64(members[0].CtrlMsgs.Value()) / float64(ctrl)
			}
		case multicast.TotalCausal:
			pt.CausalTotalMs = lat.Mean() * 1000
		}
	}

	var lat metrics.Histogram
	var nodes []*mgcast.Node
	runAblationArm(n, msgsPerSender, seed, func(net transport.Network, addrs []transport.NodeID) func(s, i int) {
		all := make([]int, n)
		for r := range all {
			all[r] = r
		}
		nodes = mgcast.NewUniverse(net, addrs, mgcast.Config{Groups: map[string][]int{"abl": all}},
			func(rank vclock.ProcessID) mgcast.DeliverFunc {
				return func(d mgcast.Delivered) { lat.Observe(d.Latency.Seconds()) }
			})
		groups := []string{"abl"}
		return func(s, i int) { nodes[s].Multicast(groups, i, 32) }
	})
	pt.AgreeMeanMs = lat.Mean() * 1000
	for _, nd := range nodes {
		pt.AgreeCtrlMsgs += nd.CtrlMsgs.Value()
	}
	return pt
}

// runAblationArm runs one arm to quiescence: build wires an n-member
// group onto a fresh simulated network and returns its cast function,
// which the shared schedule calls as cast(sender, i).
func runAblationArm(n, msgsPerSender int, seed int64, build func(net transport.Network, nodes []transport.NodeID) func(s, i int)) {
	k := sim.NewKernel(seed)
	k.SetEventLimit(50_000_000)
	net := transport.NewSimNet(k, transport.LinkConfig{BaseDelay: 2 * time.Millisecond, Jitter: 2 * time.Millisecond})
	nodes := make([]transport.NodeID, n)
	for i := range nodes {
		nodes[i] = transport.NodeID(i)
	}
	cast := build(net, nodes)
	for s := 0; s < n; s++ {
		for i := 0; i < msgsPerSender; i++ {
			k.At(time.Duration(i)*5*time.Millisecond+time.Duration(s)*200*time.Microsecond, func() {
				cast(s, i)
			})
		}
	}
	k.Run()
}

// TableAblationTotal sweeps group size.
func TableAblationTotal(sizes []int, msgsPerSender int, seed int64) *Table {
	t := &Table{
		ID:      "A1",
		Title:   "Ablation: total order via fixed sequencer vs Skeen agreement",
		Claim:   "design-choice quantification (DESIGN.md): central-hop latency and sequencer load vs per-message agreement round",
		Headers: []string{"N", "seq mean ms", "causal-total ms", "agree mean ms", "seq ctrl msgs", "agree ctrl msgs", "sequencer load %"},
	}
	for _, n := range sizes {
		pt := RunAblationTotal(n, msgsPerSender, seed)
		t.Rows = append(t.Rows, []string{
			fmtI(pt.N), fmtF(pt.SeqMeanMs), fmtF(pt.CausalTotalMs), fmtF(pt.AgreeMeanMs),
			fmtU(pt.SeqCtrlMsgs), fmtU(pt.AgreeCtrlMsgs), fmtF(pt.SequencerLoadPct),
		})
	}
	return t
}
