package experiments

import (
	"time"

	"catocs/internal/multicast"
	"catocs/internal/obs"
	"catocs/internal/scalecast"
	"catocs/internal/sim"
	"catocs/internal/transport"
	"catocs/internal/vclock"
)

// E17 — ordering-latency breakdown. The paper's §5 cost model charges
// ordered communication with latency the application cannot see into:
// a delivered message's end-to-end delay folds together time on the
// wire and time spent held back by the ordering discipline. The causal
// trace recorder (internal/obs) separates the two: every delivery is
// decomposed into network delay (send to first wire arrival at the
// delivering node, relay hops included) and ordering holdback (arrival
// to delivery). Run over CBCAST (causal delay queue), ABCAST
// (causally-consistent fixed sequencer — the repo's TotalCausal mode),
// and scalecast (constant-metadata flooding) at N ∈ {8, 32, 128}, the
// breakdown shows *where* each discipline pays: the sequencer pays an
// ordering round-trip as holdback, flooding pays relay hops as network
// delay, and the causal delay queue pays almost nothing at steady
// state — the quantified version of the paper's "ordering is not
// free" and of §5's rebuttal.

// E17Point is one (substrate, N) latency decomposition.
type E17Point struct {
	Substrate string
	N         int
	// Deliveries is the application deliveries observed; Decomposed is
	// how many the trace could split into net + hold (origin-local
	// deliveries have no wire leg and are excluded).
	Deliveries uint64
	Decomposed int
	// Held counts decomposed deliveries with strictly positive
	// holdback.
	Held int
	// Network-delay and holdback statistics, seconds.
	NetMean  float64
	NetP99   float64
	HoldMean float64
	HoldP99  float64
	// TotalMean is the decomposed end-to-end mean (net + hold),
	// seconds.
	TotalMean float64
	// HoldShare is holdback's share of total decomposed latency in
	// [0, 1] — the fraction of delivery delay the ordering discipline
	// itself imposed.
	HoldShare float64
}

// e17Substrates lists the disciplines under comparison, in report
// order.
var e17Substrates = []string{"cbcast", "abcast", "scalecast"}

// RunE17 traces one substrate at one group size on the E16 network
// (lossless 2ms±2ms links; loss-recovery holdback is E6's subject) and
// decomposes every delivery. The tracer is returned alongside the
// point so callers can export the raw trace (cmd/scalebench -trace).
func RunE17(substrate string, n, msgsPer int, seed int64) (E17Point, *obs.Tracer) {
	k := sim.NewKernel(seed)
	k.SetEventLimit(200_000_000)
	net := transport.NewSimNet(k, transport.LinkConfig{
		BaseDelay: 2 * time.Millisecond,
		Jitter:    2 * time.Millisecond,
	})
	tracer := obsHookTracer(obs.NewTracer())
	net.Instrument(tracer, obsHookRegistry(), substrate)
	nodes := make([]transport.NodeID, n)
	for i := range nodes {
		nodes[i] = transport.NodeID(i)
	}

	var deliveries uint64
	onDeliver := func(d multicast.Delivered) { deliveries++ }

	var multicastFrom func(rank int, payload any)
	switch substrate {
	case "cbcast":
		members := multicast.NewGroup(net, nodes,
			multicast.Config{Group: "e17", Ordering: multicast.Causal, Tracer: tracer},
			func(rank vclock.ProcessID) multicast.DeliverFunc { return onDeliver })
		multicastFrom = func(rank int, payload any) {
			members[rank].Multicast(payload, e16PayloadBytes)
		}
		obsHookPublish(k, substrate, multicastIntrospectors(members)...)
		defer closeAll(members)
	case "abcast":
		// Causally-consistent fixed sequencer: the repo's ABCAST. Every
		// delivery waits for the sequencer's order announcement, so the
		// ordering round-trip should surface as holdback.
		members := multicast.NewGroup(net, nodes,
			multicast.Config{Group: "e17", Ordering: multicast.TotalCausal, Tracer: tracer},
			func(rank vclock.ProcessID) multicast.DeliverFunc { return onDeliver })
		multicastFrom = func(rank int, payload any) {
			members[rank].Multicast(payload, e16PayloadBytes)
		}
		obsHookPublish(k, substrate, multicastIntrospectors(members)...)
		defer closeAll(members)
	case "scalecast":
		members := scalecast.NewGroup(net, nodes,
			scalecast.Config{Group: "e17", Tracer: tracer},
			func(rank vclock.ProcessID) multicast.DeliverFunc { return onDeliver })
		multicastFrom = func(rank int, payload any) {
			members[rank].Multicast(payload, e16PayloadBytes)
		}
		intros := make([]obs.Introspector, len(members))
		for i, m := range members {
			intros[i] = m
		}
		obsHookPublish(k, substrate, intros...)
		defer func() {
			for _, m := range members {
				m.Close()
			}
		}()
	default:
		panic("e17: unknown substrate " + substrate)
	}

	senders := e16Senders(n)
	for s := 0; s < senders; s++ {
		for i := 0; i < msgsPer; i++ {
			s, i := s, i
			k.At(time.Duration(i)*e16Interval+time.Duration(s)*100*time.Microsecond, func() {
				multicastFrom(s, i)
			})
		}
	}
	k.RunUntil(time.Duration(msgsPer)*e16Interval + 2*time.Second)

	bd := obs.AnalyzeLatency(tracer.Events())
	return E17Point{
		Substrate:  substrate,
		N:          n,
		Deliveries: deliveries,
		Decomposed: len(bd.Samples),
		Held:       bd.Held,
		NetMean:    bd.Net.Mean(),
		NetP99:     bd.Net.Quantile(0.99),
		HoldMean:   bd.Hold.Mean(),
		HoldP99:    bd.Hold.Quantile(0.99),
		TotalMean:  bd.Total.Mean(),
		HoldShare:  bd.HoldShare(),
	}, tracer
}

func closeAll(members []*multicast.Member) {
	for _, m := range members {
		m.Close()
	}
}

// multicastIntrospectors gathers each member and its stability tracker
// as status publishers for the live observability plane.
func multicastIntrospectors(members []*multicast.Member) []obs.Introspector {
	var out []obs.Introspector
	for _, m := range members {
		out = append(out, m)
		if st := m.Stability(); st != nil {
			out = append(out, st)
		}
	}
	return out
}

// RunE17Sweep decomposes all three substrates across the size sweep.
func RunE17Sweep(sizes []int, msgsPer int, seed int64) []E17Point {
	var pts []E17Point
	for _, sub := range e17Substrates {
		for _, n := range sizes {
			pt, _ := RunE17(sub, n, msgsPer, seed)
			pts = append(pts, pt)
		}
	}
	return pts
}

// TableE17From renders already-computed points (cmd/scalebench reuses
// it after exporting traces).
func TableE17From(pts []E17Point) *Table {
	t := &Table{
		ID:    "E17",
		Title: "Ordering-latency breakdown: network delay vs ordering holdback (§5 cost model)",
		Claim: "end-to-end delivery latency decomposes into wire time + ordering-imposed holdback; each discipline pays in a different place",
		Headers: []string{"substrate", "N", "deliveries", "decomposed", "held",
			"net mean ms", "net p99 ms", "hold mean ms", "hold p99 ms", "total ms", "hold share"},
	}
	for _, pt := range pts {
		t.Rows = append(t.Rows, []string{
			pt.Substrate, fmtI(pt.N), fmtU(pt.Deliveries), fmtI(pt.Decomposed), fmtI(pt.Held),
			fmtMs(pt.NetMean), fmtMs(pt.NetP99), fmtMs(pt.HoldMean), fmtMs(pt.HoldP99),
			fmtMs(pt.TotalMean), fmtF(pt.HoldShare),
		})
	}
	t.Notes = append(t.Notes,
		"net = send to first wire arrival at the delivering node (relay hops included); hold = arrival to delivery",
		"abcast (TotalCausal fixed sequencer) pays its ordering round-trip as holdback; scalecast pays flood hops as network delay",
		"origin-local deliveries are excluded (no wire leg); lossless links, so holdback is pure ordering, not recovery")
	return t
}

// TableE17 runs the sweep and renders it.
func TableE17(sizes []int, msgsPer int, seed int64) *Table {
	return TableE17From(RunE17Sweep(sizes, msgsPer, seed))
}
