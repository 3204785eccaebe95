package catocs

// Benchmark harness: one testing.B benchmark per experiment (E1–E12)
// plus the ablations, regenerating the EXPERIMENTS.md measurements.
// Each benchmark runs its experiment's core simulation per iteration
// and reports the experiment's headline quantity as a custom metric,
// so `go test -bench=. -benchmem` reproduces both the cost of the
// simulation and the shape of the result.

import (
	"fmt"
	"testing"
	"time"

	"catocs/internal/apps/drilling"
	"catocs/internal/apps/firealarm"
	"catocs/internal/apps/netnews"
	"catocs/internal/apps/sfc"
	"catocs/internal/apps/trading"
	"catocs/internal/experiments"
	"catocs/internal/multicast"
)

func BenchmarkE1CausalDelivery(b *testing.B) {
	held := 0
	for i := 0; i < b.N; i++ {
		r := experiments.RunE1(int64(i + 1))
		if r.CausalOrderHeld {
			held++
		}
	}
	b.ReportMetric(float64(held)/float64(b.N), "causal-order-held")
}

func BenchmarkE2HiddenChannel(b *testing.B) {
	anomalies := 0
	for i := 0; i < b.N; i++ {
		cfg := sfc.DefaultConfig()
		cfg.Seed = int64(i + 1)
		cfg.Jitter = 8 * time.Millisecond
		r := sfc.Run(cfg)
		if r.AnomalyRaw {
			anomalies++
		}
		if r.AnomalyVersioned {
			b.Fatal("versioned observer misled")
		}
	}
	b.ReportMetric(float64(anomalies)/float64(b.N), "raw-anomaly-rate")
}

func BenchmarkE3ExternalChannel(b *testing.B) {
	anomalies := 0
	for i := 0; i < b.N; i++ {
		cfg := firealarm.DefaultConfig()
		cfg.Seed = int64(i + 1)
		r := firealarm.Run(cfg)
		if r.AnomalyRaw {
			anomalies++
		}
		if r.AnomalyTemporal {
			b.Fatal("temporal observer misled")
		}
	}
	b.ReportMetric(float64(anomalies)/float64(b.N), "raw-anomaly-rate")
}

func BenchmarkE4TradingAnomaly(b *testing.B) {
	crossings := 0
	for i := 0; i < b.N; i++ {
		cfg := trading.DefaultConfig()
		cfg.Seed = int64(i + 1)
		r := trading.Run(cfg)
		crossings += r.RawFalseCrossings
		if r.CacheFalseCrossings != 0 {
			b.Fatal("dependency display crossed")
		}
	}
	b.ReportMetric(float64(crossings)/float64(b.N), "false-crossings/run")
}

func BenchmarkE5FalseCausality(b *testing.B) {
	var gapMs float64
	for i := 0; i < b.N; i++ {
		pt := experiments.RunE5(12, 20, 5*time.Millisecond, 8*time.Millisecond, int64(i+1))
		gapMs = (pt.Mean[multicast.Causal] - pt.Mean[multicast.FIFO]) * 1000
	}
	b.ReportMetric(gapMs, "causal-fifo-gap-ms")
}

func BenchmarkE6BufferGrowth(b *testing.B) {
	var perNode float64
	for i := 0; i < b.N; i++ {
		pt := experiments.RunE6(12, 25, 5*time.Millisecond, 0.05, int64(i+1))
		perNode = float64(pt.PeakBufPerNode)
	}
	b.ReportMetric(perNode, "peak-buf-per-node")
}

func BenchmarkE7ViewChange(b *testing.B) {
	var flush float64
	for i := 0; i < b.N; i++ {
		pt := experiments.RunE7(8, int64(i+1))
		flush = float64(pt.FlushMsgs)
	}
	b.ReportMetric(flush, "flush-msgs")
}

func BenchmarkE8Deadlock(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		pt := experiments.RunE8(6, 80, 25*time.Millisecond, int64(i+1))
		if !pt.VRDetected || !pt.STDetected {
			b.Fatal("detector missed the deadlock")
		}
		ratio = float64(pt.VRMsgs) / float64(pt.STMsgs)
	}
	b.ReportMetric(ratio, "vr/st-msg-ratio")
}

func BenchmarkE9Replication(b *testing.B) {
	var lost float64
	for i := 0; i < b.N; i++ {
		pt := experiments.RunE9Catocs(3, 20, 0, true, int64(i+1))
		lost = float64(pt.LostUpdates)
		tx := experiments.RunE9Tx(3, 20, 4, int64(i+1))
		if tx.Committed != 20 {
			b.Fatalf("tx commits = %d", tx.Committed)
		}
	}
	b.ReportMetric(lost, "k0-lost-updates")
}

func BenchmarkE10Drilling(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		cfg := drilling.Config{
			Seed: int64(i + 1), Holes: 24, Drillers: 6,
			DrillTime: 10 * time.Millisecond, CrashDriller: -1,
		}
		central := drilling.RunCentral(cfg)
		catocs := drilling.RunCatocs(cfg)
		if central.DoubleDrilled+catocs.DoubleDrilled != 0 {
			b.Fatal("double drill")
		}
		ratio = float64(catocs.DataMsgs) / float64(central.DataMsgs)
	}
	b.ReportMetric(ratio, "catocs/central-msg-ratio")
}

func BenchmarkE11Netnews(b *testing.B) {
	var collateralMs float64
	for i := 0; i < b.N; i++ {
		cfg := netnews.DefaultConfig()
		cfg.Seed = int64(i + 1)
		rs := netnews.RunState(cfg)
		rc := netnews.RunCatocs(cfg)
		collateralMs = (rc.UnrelatedLatency.Mean() - rs.UnrelatedLatency.Mean()) * 1000
	}
	b.ReportMetric(collateralMs, "catocs-collateral-delay-ms")
}

func BenchmarkE12Realtime(b *testing.B) {
	var extraStale float64
	for i := 0; i < b.N; i++ {
		pt := experiments.RunE12(0.1, int64(i+1))
		extraStale = pt.CatocsStaleMs - pt.StateStaleMs
	}
	b.ReportMetric(extraStale, "catocs-extra-staleness-ms")
}

func BenchmarkE13Durability(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		pt := experiments.RunE13(8, 30, int64(i+1))
		if !pt.RecoveredOK {
			b.Fatal("recovery failed")
		}
		ratio = float64(pt.CommBytes) / float64(pt.StateBytes)
	}
	b.ReportMetric(ratio, "comm/state-log-bytes")
}

func BenchmarkE14NameService(b *testing.B) {
	var undos float64
	for i := 0; i < b.N; i++ {
		g := experiments.RunE14Gossip(8, 24, int64(i+1))
		if g.Diverged != 0 {
			b.Fatal("gossip diverged")
		}
		undos = float64(g.ConflictsResolved)
	}
	b.ReportMetric(undos, "lww-undos")
}

func BenchmarkE5HeaderOverhead(b *testing.B) {
	var pct float64
	for i := 0; i < b.N; i++ {
		pt := experiments.RunE5Header(32, 15, 1_000_000, int64(i+1))
		pct = pt.OverheadPct
	}
	b.ReportMetric(pct, "header-overhead-pct")
}

func BenchmarkE7Join(b *testing.B) {
	var ms float64
	for i := 0; i < b.N; i++ {
		pt := experiments.RunE7Join(8, int64(i+1))
		ms = pt.AdmissionMs
	}
	b.ReportMetric(ms, "admission-ms")
}

func BenchmarkE15CausalMemory(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		sc, to := experiments.RunE15(8, 24, int64(i+1))
		ratio = float64(to.Msgs) / float64(sc.Msgs)
	}
	b.ReportMetric(ratio, "totalorder/stateclock-msgs")
}

func BenchmarkAblationTotalOrder(b *testing.B) {
	var agreeOverSeq float64
	for i := 0; i < b.N; i++ {
		pt := experiments.RunAblationTotal(8, 10, int64(i+1))
		agreeOverSeq = pt.AgreeMeanMs / pt.SeqMeanMs
	}
	b.ReportMetric(agreeOverSeq, "agree/seq-latency-ratio")
}

func BenchmarkAblationPartitioning(b *testing.B) {
	var totalBuf float64
	for i := 0; i < b.N; i++ {
		pt := experiments.RunE6Partition(3, 4, 20, 0.05, int64(i+1))
		totalBuf = float64(pt.TotalPeakBuf)
	}
	b.ReportMetric(totalBuf, "chained-groups-total-buf")
}

func BenchmarkAblationPiggyback(b *testing.B) {
	var amp float64
	for i := 0; i < b.N; i++ {
		pt := experiments.RunE5Piggyback(12, 20, int64(i+1))
		amp = pt.AmplificationPct
	}
	b.ReportMetric(amp, "piggyback-amplification-pct")
}

func BenchmarkE20MGCast(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		pts := experiments.RunE20(16, []int{2}, 8, int64(i+1))
		var mg, big float64
		for _, pt := range pts {
			if pt.Violations != 0 {
				b.Fatalf("%s: %d ordering violations", pt.Substrate, pt.Violations)
			}
			switch pt.Substrate {
			case "mgcast":
				mg = pt.LatMean
			case "biggroup":
				big = pt.LatMean
			}
		}
		speedup = big / mg
	}
	b.ReportMetric(speedup, "biggroup/mgcast-latency-ratio")
}

// Micro-benchmarks of the protocol hot paths, for the §3.4 point that
// CATOCS "imposes overhead on every message transmission and
// reception".

func BenchmarkMulticastThroughputUnordered(b *testing.B) { benchThroughput(b, Unordered) }
func BenchmarkMulticastThroughputFIFO(b *testing.B)      { benchThroughput(b, FIFO) }
func BenchmarkMulticastThroughputCausal(b *testing.B)    { benchThroughput(b, Causal) }
func BenchmarkMulticastThroughputTotalSeq(b *testing.B)  { benchThroughput(b, TotalSeq) }

// The chain stamp beside the period-1 Causal above: a non-atomic group
// sends the full clock on every cast unless told otherwise, which is
// safe here because the bench link is lossless and FIFO.
func BenchmarkMulticastThroughputCausalDelta(b *testing.B) {
	benchThroughputCfg(b, GroupConfig{Group: "bench", Ordering: Causal, VCRefreshEvery: 32})
}

func benchThroughput(b *testing.B, ord Ordering) {
	benchThroughputCfg(b, GroupConfig{Group: "bench", Ordering: ord})
}

func benchThroughputCfg(b *testing.B, cfg GroupConfig) {
	sim := NewSimulation(1, LinkConfig{BaseDelay: time.Millisecond})
	nodes := []NodeID{0, 1, 2, 3}
	delivered := 0
	members := NewGroup(sim.Mux, nodes, cfg,
		func(ProcessID) DeliverFunc {
			return func(Delivered) { delivered++ }
		})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		members[i%4].Multicast(i, 16)
		if i%256 == 255 {
			sim.Run() // drain periodically to bound queue growth
		}
	}
	sim.Run()
	b.ReportMetric(float64(delivered)/float64(b.N), "deliveries/msg")
}

// BenchmarkScalecastVsCBCAST runs the E16 head-to-head sweep as
// sub-benchmarks, reporting the headline per-packet control bytes as a
// metric and emitting one JSON line per (substrate, N) — the same
// records `scalebench -exp scalecast -json` produces.
func BenchmarkScalecastVsCBCAST(b *testing.B) {
	for _, substrate := range []string{"cbcast", "scalecast"} {
		for _, n := range []int{8, 32, 128} {
			substrate, n := substrate, n
			b.Run(fmt.Sprintf("%s/N=%d", substrate, n), func(b *testing.B) {
				var pt experiments.E16Point
				for i := 0; i < b.N; i++ {
					pt = experiments.RunE16(substrate, n, 4, int64(i+1))
				}
				b.ReportMetric(pt.CtrlBytesPerPkt, "ctrl-B/pkt")
				b.ReportMetric(pt.LatencyMean*1000, "mean-lat-ms")
				b.Logf("%s", pt.JSON())
			})
		}
	}
}
