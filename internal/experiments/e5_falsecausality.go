package experiments

import (
	"time"

	"catocs/internal/metrics"
	"catocs/internal/multicast"
	"catocs/internal/sim"
	"catocs/internal/transport"
	"catocs/internal/vclock"
)

// E5 — false causality (§3.4). N senders multicast semantically
// independent messages. Under CBCAST every message's stamp covers all
// messages its sender had delivered, so network jitter makes messages
// wait for unrelated predecessors. The experiment measures delivery
// latency under unordered, FIFO, and causal disciplines on the
// identical workload and network schedule: the causal-minus-FIFO gap
// is pure false-causality delay, because the workload has no
// application-level cross-sender dependencies at all.

// E5Point is one sweep point.
type E5Point struct {
	N            int
	Mean         map[multicast.Ordering]float64 // seconds
	P99          map[multicast.Ordering]float64
	PeakHoldback map[multicast.Ordering]int64
}

// RunE5 measures one group size.
func RunE5(n, msgsPerSender int, interval, jitter time.Duration, seed int64) E5Point {
	pt := E5Point{
		N:            n,
		Mean:         make(map[multicast.Ordering]float64),
		P99:          make(map[multicast.Ordering]float64),
		PeakHoldback: make(map[multicast.Ordering]int64),
	}
	for _, ord := range []multicast.Ordering{multicast.Unordered, multicast.FIFO, multicast.Causal} {
		k := sim.NewKernel(seed) // same seed: same network draws per discipline
		k.SetEventLimit(50_000_000)
		net := transport.NewSimNet(k, transport.LinkConfig{BaseDelay: 2 * time.Millisecond, Jitter: jitter})
		nodes := make([]transport.NodeID, n)
		for i := range nodes {
			nodes[i] = transport.NodeID(i)
		}
		var lat metrics.Histogram
		members := multicast.NewGroup(net, nodes, multicast.Config{Group: "e5", Ordering: ord},
			func(rank vclock.ProcessID) multicast.DeliverFunc {
				return func(d multicast.Delivered) { lat.Observe(d.Latency.Seconds()) }
			})
		for s := 0; s < n; s++ {
			for i := 0; i < msgsPerSender; i++ {
				s, i := s, i
				k.At(time.Duration(i)*interval+time.Duration(s)*time.Millisecond, func() {
					members[s].Multicast(i, 16)
				})
			}
		}
		k.Run()
		pt.Mean[ord] = lat.Mean()
		pt.P99[ord] = lat.Quantile(0.99)
		var peak int64
		for _, m := range members {
			if m.HoldbackGauge.Max() > peak {
				peak = m.HoldbackGauge.Max()
			}
		}
		pt.PeakHoldback[ord] = peak
	}
	return pt
}

// TableE5 sweeps group size.
func TableE5(sizes []int, msgsPerSender int, seed int64) *Table {
	t := &Table{
		ID:    "E5",
		Title: "False causality: delivery delay of semantically independent traffic (§3.4)",
		Claim: "CBCAST delays messages behind potentially- but not actually-causal predecessors; overhead grows with group size",
		Headers: []string{"N", "unordered mean ms", "fifo mean ms", "causal mean ms",
			"causal p99 ms", "causal-fifo gap ms", "peak causal holdback"},
	}
	for _, n := range sizes {
		pt := RunE5(n, msgsPerSender, 5*time.Millisecond, 8*time.Millisecond, seed)
		gap := pt.Mean[multicast.Causal] - pt.Mean[multicast.FIFO]
		t.Rows = append(t.Rows, []string{
			fmtI(n),
			fmtMs(pt.Mean[multicast.Unordered]),
			fmtMs(pt.Mean[multicast.FIFO]),
			fmtMs(pt.Mean[multicast.Causal]),
			fmtMs(pt.P99[multicast.Causal]),
			fmtMs(gap),
			fmtI(int(pt.PeakHoldback[multicast.Causal])),
		})
	}
	t.Notes = append(t.Notes, "identical workload and link schedule per row; the causal-fifo gap is pure false-causality delay")
	return t
}

// E5PiggybackPoint compares the delay-queue CBCAST against the
// footnote-4 alternative: appending causal predecessors to each
// message instead of delaying delivery. We model the alternative's
// cost analytically from the same run: every message would carry its
// undelivered predecessors, so the traffic amplification equals
// (bytes of predecessors piggybacked) / (base bytes) — measured from
// the holdback occupancy at each arrival.
type E5PiggybackPoint struct {
	N                int
	DelayMs          float64 // CBCAST mean added delay vs unordered
	AmplificationPct float64 // extra bytes the piggyback variant ships
	ArrivalsWithDeps int
	TotalArrivals    int
}

// RunE5Piggyback measures the ablation trade at one group size.
func RunE5Piggyback(n, msgsPerSender int, seed int64) E5PiggybackPoint {
	k := sim.NewKernel(seed)
	k.SetEventLimit(50_000_000)
	net := transport.NewSimNet(k, transport.LinkConfig{BaseDelay: 2 * time.Millisecond, Jitter: 8 * time.Millisecond})
	nodes := make([]transport.NodeID, n)
	for i := range nodes {
		nodes[i] = transport.NodeID(i)
	}
	var lat metrics.Histogram
	var arrivals, withDeps int
	var baseBytes, extraBytes float64
	var members []*multicast.Member
	members = multicast.NewGroup(net, nodes, multicast.Config{Group: "e5p", Ordering: multicast.Causal},
		func(rank vclock.ProcessID) multicast.DeliverFunc {
			m := rank
			return func(d multicast.Delivered) {
				lat.Observe(d.Latency.Seconds())
				arrivals++
				baseBytes += 64
				// Piggyback model: at the moment of this delivery, the
				// messages still in the member's holdback queue are the
				// ones a piggybacking sender would have had to attach.
				if pend := members[m].PendingCount(); pend > 0 {
					withDeps++
					extraBytes += float64(64 * pend)
				}
			}
		})
	for s := 0; s < n; s++ {
		for i := 0; i < msgsPerSender; i++ {
			s, i := s, i
			k.At(time.Duration(i)*5*time.Millisecond+time.Duration(s)*time.Millisecond, func() {
				members[s].Multicast(i, 16)
			})
		}
	}
	k.Run()
	amp := 0.0
	if baseBytes > 0 {
		amp = 100 * extraBytes / baseBytes
	}
	return E5PiggybackPoint{
		N:                n,
		DelayMs:          lat.Mean() * 1000,
		AmplificationPct: amp,
		ArrivalsWithDeps: withDeps,
		TotalArrivals:    arrivals,
	}
}

// E5HeaderPoint measures the §3.4 per-message header cost at line
// rate: the same payload stream under unordered (bare header) and
// causal (vector-clock header) delivery over a bandwidth-limited
// link, plus a full-vs-delta clock encoding comparison under a
// sparse-writer workload. The delta encoding carries only the clock
// entries that changed since the sender's previous cast — O(active
// writers) — so its win shows where few of the N members write; with
// all N writing concurrently every entry changes and deltas degrade
// to (slightly worse than) full clocks. Ctrl bytes are measured from
// the transport's accounting, not computed from the clock width, so
// they include every protocol frame actually sent.
type E5HeaderPoint struct {
	N               int
	UnorderedMeanMs float64
	CausalMeanMs    float64
	OverheadPct     float64
	HeaderBytes     int
	// Sparse-writer arms: min(4, N) active senders, same total
	// message count, full vs delta clock encoding.
	SparseFullCtrlBpp  float64 // measured ctrl bytes per packet, full clocks
	SparseDeltaCtrlBpp float64 // measured ctrl bytes per packet, delta clocks
}

// RunE5Header measures one group size.
func RunE5Header(n, msgsPerSender int, bandwidth int, seed int64) E5HeaderPoint {
	pt := E5HeaderPoint{N: n, HeaderBytes: 8 * n}
	type arm struct {
		tag     string
		ord     multicast.Ordering
		refresh int // stamp-chain refresh period (0 = default: full clock on every cast here, non-atomic)
		senders int
	}
	sparse := 4
	if n < sparse {
		sparse = n
	}
	for _, a := range []arm{
		{"unordered", multicast.Unordered, 0, n},
		{"causal", multicast.Causal, 0, n},
		{"sparse-full", multicast.Causal, 0, sparse},
		// Safe without Atomic: this link is lossless and FIFO.
		{"sparse-delta", multicast.Causal, 32, sparse},
	} {
		k := sim.NewKernel(seed)
		k.SetEventLimit(50_000_000)
		net := transport.NewSimNet(k, transport.LinkConfig{
			BaseDelay: time.Millisecond,
			Bandwidth: bandwidth,
		})
		nodes := make([]transport.NodeID, n)
		for i := range nodes {
			nodes[i] = transport.NodeID(i)
		}
		var lat metrics.Histogram
		members := multicast.NewGroup(net, nodes,
			multicast.Config{Group: "e5h", Ordering: a.ord, VCRefreshEvery: a.refresh},
			func(rank vclock.ProcessID) multicast.DeliverFunc {
				return func(d multicast.Delivered) { lat.Observe(d.Latency.Seconds()) }
			})
		for s := 0; s < a.senders; s++ {
			for i := 0; i < msgsPerSender; i++ {
				s, i := s, i
				k.At(time.Duration(i)*5*time.Millisecond, func() {
					members[s].Multicast(i, 64)
				})
			}
		}
		k.Run()
		st := net.Stats()
		ctrlBpp := 0.0
		if st.Sent > 0 {
			ctrlBpp = float64(st.CtrlBytes) / float64(st.Sent)
		}
		switch a.tag {
		case "unordered":
			pt.UnorderedMeanMs = lat.Mean() * 1000
		case "causal":
			pt.CausalMeanMs = lat.Mean() * 1000
		case "sparse-delta":
			pt.SparseDeltaCtrlBpp = ctrlBpp
		default: // sparse-full
			pt.SparseFullCtrlBpp = ctrlBpp
		}
	}
	if pt.UnorderedMeanMs > 0 {
		pt.OverheadPct = 100 * (pt.CausalMeanMs - pt.UnorderedMeanMs) / pt.UnorderedMeanMs
	}
	return pt
}

// TableE5Header sweeps group size at a fixed line rate.
func TableE5Header(sizes []int, msgsPerSender, bandwidth int, seed int64) *Table {
	t := &Table{
		ID:      "E5c",
		Title:   "Per-message ordering header at line rate (§3.4)",
		Claim:   "ordering information added to every message 'will be an increasingly significant cost as networks go to ever higher transfer rates' — and the vector clock grows with the group",
		Headers: []string{"N", "header B/msg", "unordered mean ms", "causal mean ms", "overhead %", "ctrl B/pkt full", "ctrl B/pkt delta"},
	}
	for _, n := range sizes {
		pt := RunE5Header(n, msgsPerSender, bandwidth, seed)
		t.Rows = append(t.Rows, []string{
			fmtI(pt.N), fmtI(pt.HeaderBytes), fmtF(pt.UnorderedMeanMs), fmtF(pt.CausalMeanMs), fmtF(pt.OverheadPct),
			fmtF(pt.SparseFullCtrlBpp), fmtF(pt.SparseDeltaCtrlBpp),
		})
	}
	t.Notes = append(t.Notes, "lossless link with finite bandwidth: the latency gap is pure header serialization plus any delay-queue wait")
	t.Notes = append(t.Notes, "ctrl B/pkt columns compare the full clock on every cast (refresh period 1) with the delta-encoded stamp chain (refresh period 32) under a sparse-writer workload (4 active senders): the delta header is O(active writers), not O(N) — slightly worse at N=4, where every member writes and every clock entry changes per cast")
	return t
}

// TableE5Piggyback renders the delay-vs-amplification ablation.
func TableE5Piggyback(sizes []int, msgsPerSender int, seed int64) *Table {
	t := &Table{
		ID:      "E5b",
		Title:   "Ablation: delay queue vs piggybacking causal predecessors (footnote 4)",
		Claim:   "appending earlier causal messages avoids delay but 'can significantly increase network traffic'",
		Headers: []string{"N", "causal mean ms", "piggyback traffic amplification %", "arrivals blocked on deps"},
	}
	for _, n := range sizes {
		pt := RunE5Piggyback(n, msgsPerSender, seed)
		t.Rows = append(t.Rows, []string{
			fmtI(pt.N), fmtF(pt.DelayMs), fmtF(pt.AmplificationPct),
			fmtI(pt.ArrivalsWithDeps) + "/" + fmtI(pt.TotalArrivals),
		})
	}
	return t
}
