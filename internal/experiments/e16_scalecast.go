package experiments

import (
	"encoding/json"
	"time"

	"catocs/internal/metrics"
	"catocs/internal/multicast"
	"catocs/internal/obs"
	"catocs/internal/scalecast"
	"catocs/internal/sim"
	"catocs/internal/transport"
	"catocs/internal/vclock"
)

// E16 — scalable causal broadcast vs vector-clock CBCAST. The §5
// critique charges causal ordering with per-message metadata and
// buffering that grow with the group. internal/scalecast implements
// the modern rebuttal (Nédelec et al.; Almeida): flood over a
// bounded-degree overlay of reliable FIFO links and the wire carries a
// constant-size header regardless of N. This experiment runs the same
// workload over both substrates at N ∈ {8..512} and measures what the
// wire actually carried: control bytes per packet (the headline —
// linear in N for CBCAST, flat for scalecast), total control cost per
// delivery (scalecast pays forwarding redundancy instead of headers),
// delivery latency (flooding pays O(√N) hops), and peak per-node
// buffering.

// E16Point is one (substrate, N) measurement.
type E16Point struct {
	Substrate string `json:"substrate"`
	N         int    `json:"n"`
	// CtrlBytesPerPkt is wire control bytes per packet sent: CBCAST's
	// vector-clock header (40 + 8N) vs scalecast's constant link+flood
	// header.
	CtrlBytesPerPkt float64 `json:"ctrl_bytes_per_pkt"`
	// CtrlBytesPerDelivery is total wire control bytes per application
	// delivery — the full metadata price including scalecast's
	// redundant forwarding and ack/heartbeat traffic.
	CtrlBytesPerDelivery float64 `json:"ctrl_bytes_per_delivery"`
	// OverheadRatio is final control ÷ payload bytes (RatioSeries).
	OverheadRatio float64 `json:"overhead_ratio"`
	// PeakOverheadRatio is the worst per-sample-window overhead.
	PeakOverheadRatio float64 `json:"peak_overhead_ratio"`
	// LatencyMean / LatencyP99 are delivery latencies in seconds.
	LatencyMean float64 `json:"latency_mean_s"`
	LatencyP99  float64 `json:"latency_p99_s"`
	// PeakBufPerNode is the largest per-node buffer occupancy observed
	// (holdback + reconfiguration buffers + retransmission logs).
	PeakBufPerNode int `json:"peak_buf_per_node"`
	// WireMsgs / ForwardedMsgs census the transport.
	WireMsgs      uint64 `json:"wire_msgs"`
	ForwardedMsgs uint64 `json:"forwarded_msgs"`
	Deliveries    uint64 `json:"deliveries"`
}

// JSON renders the point as one JSON line for machine consumers.
func (p E16Point) JSON() string {
	b, _ := json.Marshal(p)
	return string(b)
}

// e16Workload drives the shared schedule: the first min(n, 16) members
// multicast msgsPer messages of 64 payload bytes at 5ms spacing.
const (
	e16PayloadBytes = 64
	e16Interval     = 5 * time.Millisecond
)

func e16Senders(n int) int {
	if n < 16 {
		return n
	}
	return 16
}

// RunE16 measures one substrate at one group size on a lossless
// low-jitter network (loss isolates recovery machinery, which E6
// measures; here the subject is steady-state metadata).
func RunE16(substrate string, n, msgsPer int, seed int64) E16Point {
	k := sim.NewKernel(seed)
	k.SetEventLimit(200_000_000)
	net := transport.NewSimNet(k, transport.LinkConfig{
		BaseDelay: 2 * time.Millisecond,
		Jitter:    2 * time.Millisecond,
	})
	if reg := obsHookRegistry(); reg != nil {
		net.Instrument(obsHookTracer(nil), reg, substrate)
	}
	nodes := make([]transport.NodeID, n)
	for i := range nodes {
		nodes[i] = transport.NodeID(i)
	}

	var deliveries uint64
	lat := &metrics.Histogram{}
	onDeliver := func(d multicast.Delivered) {
		deliveries++
		lat.ObserveDuration(d.Latency)
	}

	var multicastFrom func(rank int, payload any)
	var peakBuf func() int
	switch substrate {
	case "cbcast":
		// Vector-clock CBCAST, non-atomic: the pure causal delay-queue
		// protocol, whose wire header is the quantity under test.
		// (Atomic mode adds stability acks and O(N) unstable buffering
		// on top — E6's subject.)
		members := multicast.NewGroup(net, nodes,
			multicast.Config{Group: "e16", Ordering: multicast.Causal},
			func(rank vclock.ProcessID) multicast.DeliverFunc { return onDeliver })
		multicastFrom = func(rank int, payload any) {
			members[rank].Multicast(payload, e16PayloadBytes)
		}
		peakBuf = func() int {
			peak := 0
			for _, m := range members {
				if v := int(m.HoldbackGauge.Max()); v > peak {
					peak = v
				}
			}
			return peak
		}
		obsHookPublish(k, substrate, multicastIntrospectors(members)...)
		defer func() {
			for _, m := range members {
				m.Close()
			}
		}()
	case "scalecast":
		members := scalecast.NewGroup(net, nodes, scalecast.Config{Group: "e16"},
			func(rank vclock.ProcessID) multicast.DeliverFunc { return onDeliver })
		{
			intros := make([]obs.Introspector, len(members))
			for i, m := range members {
				intros[i] = m
			}
			obsHookPublish(k, substrate, intros...)
		}
		retransPeak := 0
		sampleRetrans := func() {
			for _, m := range members {
				if v := m.RetransBufferCount() + m.PendingCount(); v > retransPeak {
					retransPeak = v
				}
			}
		}
		horizon := time.Duration(msgsPer)*e16Interval + 2*time.Second
		for t := 5 * time.Millisecond; t < horizon; t += 10 * time.Millisecond {
			k.At(t, sampleRetrans)
		}
		multicastFrom = func(rank int, payload any) {
			members[rank].Multicast(payload, e16PayloadBytes)
		}
		peakBuf = func() int {
			peak := retransPeak
			for _, m := range members {
				if v := int(m.HoldbackGauge.Max()); v > peak {
					peak = v
				}
			}
			return peak
		}
		defer func() {
			for _, m := range members {
				m.Close()
			}
		}()
	default:
		panic("e16: unknown substrate " + substrate)
	}

	// Overhead census: cumulative wire control bytes vs cumulative
	// delivered payload bytes, sampled over virtual time.
	overhead := &metrics.RatioSeries{}
	horizon := time.Duration(msgsPer)*e16Interval + 2*time.Second
	for t := 10 * time.Millisecond; t <= horizon; t += 50 * time.Millisecond {
		k.At(t, func() {
			overhead.Record(k.Now(), float64(net.Stats().CtrlBytes),
				float64(deliveries)*e16PayloadBytes)
		})
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
	k.RunUntil(horizon)

	stats := net.Stats()
	pt := E16Point{
		Substrate:         substrate,
		N:                 n,
		OverheadRatio:     overhead.Final(),
		PeakOverheadRatio: overhead.PeakWindow(),
		LatencyMean:       lat.Mean(),
		LatencyP99:        lat.Quantile(0.99),
		PeakBufPerNode:    peakBuf(),
		WireMsgs:          stats.Sent,
		ForwardedMsgs:     stats.Forwarded,
		Deliveries:        deliveries,
	}
	if stats.Sent > 0 {
		pt.CtrlBytesPerPkt = float64(stats.CtrlBytes) / float64(stats.Sent)
	}
	if deliveries > 0 {
		pt.CtrlBytesPerDelivery = float64(stats.CtrlBytes) / float64(deliveries)
	}
	return pt
}

// RunE16Sweep measures both substrates across the size sweep.
func RunE16Sweep(sizes []int, msgsPer int, seed int64) []E16Point {
	var pts []E16Point
	for _, sub := range []string{"cbcast", "scalecast"} {
		for _, n := range sizes {
			pts = append(pts, RunE16(sub, n, msgsPer, seed))
		}
	}
	return pts
}

// TableE16 renders the head-to-head sweep.
func TableE16(sizes []int, msgsPer int, seed int64) *Table {
	t := &Table{
		ID:    "E16",
		Title: "Causal broadcast metadata vs group size: vclock CBCAST vs flood scalecast (§5)",
		Claim: "causal order needs per-message state that grows with the group — refuted on the wire: constant-header flooding preserves causal order at any N",
		Headers: []string{"substrate", "N", "ctrl B/pkt", "ctrl B/delivery", "ctrl/payload",
			"mean lat ms", "p99 lat ms", "peak buf/node", "wire msgs", "forwarded"},
	}
	for _, pt := range RunE16Sweep(sizes, msgsPer, seed) {
		t.Rows = append(t.Rows, []string{
			pt.Substrate, fmtI(pt.N), fmtF(pt.CtrlBytesPerPkt), fmtF(pt.CtrlBytesPerDelivery),
			fmtF(pt.OverheadRatio), fmtMs(pt.LatencyMean), fmtMs(pt.LatencyP99),
			fmtI(pt.PeakBufPerNode), fmtU(pt.WireMsgs), fmtU(pt.ForwardedMsgs),
		})
	}
	t.Notes = append(t.Notes,
		"CBCAST runs non-atomic (pure vector-clock causal); atomic stability adds the O(N) buffering E6 measures",
		"scalecast trades headers for hops: constant ctrl B/pkt, more wire msgs (flood redundancy), higher latency (multi-hop)",
		"lossless links: steady-state metadata is the subject; loss-recovery buffering is E6's")
	return t
}
