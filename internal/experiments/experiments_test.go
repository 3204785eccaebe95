package experiments

import (
	"strings"
	"testing"
	"time"

	"catocs/internal/multicast"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID: "X", Title: "demo", Claim: "c",
		Headers: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}},
		Notes:   []string{"n"},
	}
	out := tab.Render()
	for _, want := range []string{"X — demo", "paper: c", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestE1CausalHolds(t *testing.T) {
	for s := int64(1); s <= 10; s++ {
		r := RunE1(s)
		if !r.CausalOrderHeld {
			t.Fatalf("seed %d: causal multicast failed to order m1 before m2", s)
		}
	}
	tab := TableE1(10)
	if len(tab.Rows) != 1 {
		t.Fatal("E1 table malformed")
	}
}

func TestE2E3E4AnomalyShapes(t *testing.T) {
	// The central qualitative claims: anomalies occur under CATOCS and
	// never under the state-level scheme.
	e2 := TableE2(20, 1000)
	for _, row := range e2.Rows {
		if row[2] == "0" {
			t.Fatalf("E2 %s: no raw anomalies", row[0])
		}
		if row[3] != "0" {
			t.Fatalf("E2 %s: versioned observer misled %s times", row[0], row[3])
		}
	}
	e3 := TableE3(20, 2000)
	for _, row := range e3.Rows {
		if row[3] != "0" {
			t.Fatalf("E3 %s: temporal observer misled", row[0])
		}
	}
	e4 := TableE4(10, 3000)
	for _, row := range e4.Rows {
		if row[2] == "0" && row[3] == "0" {
			t.Fatalf("E4 %s: no raw anomalies", row[0])
		}
		if row[4] != "0" || row[5] != "0" {
			t.Fatalf("E4 %s: dependency display anomalous", row[0])
		}
	}
}

func TestE5FalseCausalityShape(t *testing.T) {
	small := RunE5(2, 15, 5*time.Millisecond, 8*time.Millisecond, 7)
	large := RunE5(12, 15, 5*time.Millisecond, 8*time.Millisecond, 7)
	gapSmall := small.Mean[multicast.Causal] - small.Mean[multicast.FIFO]
	gapLarge := large.Mean[multicast.Causal] - large.Mean[multicast.FIFO]
	if gapLarge <= 0 {
		t.Fatalf("no false-causality delay at N=12: gap=%v", gapLarge)
	}
	if gapLarge <= gapSmall {
		t.Fatalf("false-causality gap did not grow with N: %v (N=2) vs %v (N=12)", gapSmall, gapLarge)
	}
	// Causal latency must dominate unordered on the same schedule.
	if large.Mean[multicast.Causal] < large.Mean[multicast.Unordered] {
		t.Fatal("causal delivery cannot be faster than unordered on the same draws")
	}
}

func TestE5HeaderOverheadGrowsWithN(t *testing.T) {
	small := RunE5Header(4, 15, 1_000_000, 7)
	large := RunE5Header(32, 15, 1_000_000, 7)
	if small.OverheadPct <= 0 {
		t.Fatalf("no header overhead measured: %+v", small)
	}
	if large.OverheadPct <= small.OverheadPct {
		t.Fatalf("header overhead did not grow with N: %.2f%% vs %.2f%%",
			small.OverheadPct, large.OverheadPct)
	}
}

func TestE5PiggybackAmplification(t *testing.T) {
	pt := RunE5Piggyback(8, 15, 7)
	if pt.AmplificationPct <= 0 {
		t.Fatal("piggyback model measured no amplification; no reorder pressure")
	}
	if pt.ArrivalsWithDeps == 0 || pt.ArrivalsWithDeps >= pt.TotalArrivals {
		t.Fatalf("blocked arrivals %d of %d implausible", pt.ArrivalsWithDeps, pt.TotalArrivals)
	}
}

func TestE6BufferGrowthShape(t *testing.T) {
	small := RunE6(4, 30, 5*time.Millisecond, 0.05, 11)
	large := RunE6(12, 30, 5*time.Millisecond, 0.05, 11)
	if small.PeakBufPerNode == 0 || large.PeakBufPerNode == 0 {
		t.Fatal("no buffering measured")
	}
	if large.PeakBufPerNode <= small.PeakBufPerNode {
		t.Fatalf("per-node buffering did not grow: %d (N=4) vs %d (N=12)",
			small.PeakBufPerNode, large.PeakBufPerNode)
	}
	if large.TotalPeakBuf <= 2*small.TotalPeakBuf {
		t.Fatalf("system-wide buffering grew too slowly: %d vs %d",
			small.TotalPeakBuf, large.TotalPeakBuf)
	}
	if large.PeakGraphArcs <= small.PeakGraphArcs {
		t.Fatalf("causal-graph arcs did not grow: %d vs %d",
			small.PeakGraphArcs, large.PeakGraphArcs)
	}
}

func TestE6TrafficShape(t *testing.T) {
	// Lossless: the peak is pure stability lag, so burstiness must
	// dominate clearly on every seed.
	for _, seed := range []int64{1, 41} {
		uniform := RunE6Shaped(8, 40, "uniform", 0, seed)
		bursty := RunE6Shaped(8, 40, "bursty", 0, seed)
		if uniform.PeakBufPerNode == 0 || bursty.PeakBufPerNode == 0 {
			t.Fatal("no buffering measured")
		}
		if bursty.PeakBufPerNode < 2*uniform.PeakBufPerNode {
			t.Fatalf("seed %d: bursty peak %d should clearly exceed uniform %d",
				seed, bursty.PeakBufPerNode, uniform.PeakBufPerNode)
		}
	}
}

func TestE7ViewChangeShape(t *testing.T) {
	small := RunE7(4, 13)
	large := RunE7(10, 13)
	if small.FlushMsgs == 0 || large.FlushMsgs == 0 {
		t.Fatal("flush produced no messages; view change did not run")
	}
	if large.FlushMsgs <= small.FlushMsgs {
		t.Fatalf("flush cost did not grow with N: %d vs %d", small.FlushMsgs, large.FlushMsgs)
	}
	if small.MeanSuppressMs <= 0 || small.RecoveryMs <= 0 {
		t.Fatalf("suppression/recovery not measured: %+v", small)
	}
}

func TestE7JoinShape(t *testing.T) {
	small := RunE7Join(4, 43)
	large := RunE7Join(10, 43)
	if small.AdmissionMs <= 0 || large.AdmissionMs <= 0 {
		t.Fatalf("join not admitted: %+v %+v", small, large)
	}
	if large.FlushMsgs <= small.FlushMsgs {
		t.Fatalf("join flush cost did not grow with N: %d vs %d",
			small.FlushMsgs, large.FlushMsgs)
	}
}

func TestE8DeadlockShape(t *testing.T) {
	pt := RunE8(5, 100, 25*time.Millisecond, 17)
	if !pt.VRDetected || !pt.STDetected {
		t.Fatalf("a detector missed the deadlock: vr=%v st=%v", pt.VRDetected, pt.STDetected)
	}
	if pt.VRFalse != 0 || pt.STFalse != 0 {
		t.Fatalf("false deadlocks: vr=%d st=%d", pt.VRFalse, pt.STFalse)
	}
	if pt.VRMsgs <= 2*pt.STMsgs {
		t.Fatalf("expected clear message separation: vr=%d st=%d", pt.VRMsgs, pt.STMsgs)
	}
}

func TestE9ReplicationShape(t *testing.T) {
	// k=0 loses updates on primary crash; k=1 does not claim completion
	// it cannot honour.
	lossy := RunE9Catocs(3, 20, 0, true, 19)
	if lossy.LostUpdates == 0 {
		t.Fatal("k=0 crash lost nothing; durability anomaly not reproduced")
	}
	safe := RunE9Catocs(3, 20, 1, false, 19)
	if safe.WriteLatMs <= 0 {
		t.Fatal("k=1 write latency not measured")
	}
	tx1 := RunE9Tx(3, 20, 1, 19)
	tx4 := RunE9Tx(3, 20, 4, 19)
	if tx1.Committed != 20 || tx4.Committed != 20 {
		t.Fatalf("tx commits: %d / %d, want 20", tx1.Committed, tx4.Committed)
	}
	if tx4.Throughput <= tx1.Throughput {
		t.Fatalf("concurrent updaters did not raise throughput: %v vs %v",
			tx1.Throughput, tx4.Throughput)
	}
}

func TestE12RealtimeShape(t *testing.T) {
	pt := RunE12(0.1, 23)
	if pt.StateStaleMs <= 0 || pt.CatocsStaleMs <= 0 {
		t.Fatalf("staleness not measured: %+v", pt)
	}
	if pt.CatocsStaleMs <= pt.StateStaleMs {
		t.Fatalf("CATOCS staleness %v should exceed temporal %v under loss",
			pt.CatocsStaleMs, pt.StateStaleMs)
	}
	if pt.CatocsRMS <= pt.StateRMS {
		t.Fatalf("CATOCS tracking error %v should exceed temporal %v",
			pt.CatocsRMS, pt.StateRMS)
	}
}

func TestE13DurabilityShape(t *testing.T) {
	small := RunE13(4, 30, 31)
	large := RunE13(12, 30, 31)
	if !small.RecoveredOK || !large.RecoveredOK {
		t.Fatal("state-log recovery failed")
	}
	if small.StateAppends != 30 || large.StateAppends != 30 {
		t.Fatalf("state appends should equal writes: %d / %d", small.StateAppends, large.StateAppends)
	}
	// Communication logging scales with N; state logging does not.
	if large.CommAppends <= small.CommAppends {
		t.Fatalf("comm appends did not grow with N: %d vs %d", small.CommAppends, large.CommAppends)
	}
	if large.CommBytes < 5*large.StateBytes {
		t.Fatalf("expected comm log to dwarf state log at N=12: %d vs %d bytes",
			large.CommBytes, large.StateBytes)
	}
}

func TestE14NameServiceShape(t *testing.T) {
	g := RunE14Gossip(8, 24, 37)
	c := RunE14Catocs(8, 24, 37)
	if g.ConvergedMs <= 0 || g.Diverged != 0 {
		t.Fatalf("gossip did not converge: %+v", g)
	}
	if g.ConflictsResolved == 0 {
		t.Fatal("no undos recorded despite concurrent duplicate binds")
	}
	if c.Diverged == 0 {
		t.Fatal("causal group converged on concurrent binds; it should diverge without LWW")
	}
	if c.StateBytesPerNode <= g.StateBytesPerNode {
		t.Fatalf("CATOCS per-node state %d should dwarf gossip's %d",
			c.StateBytesPerNode, g.StateBytesPerNode)
	}
}

func TestE15CausalMemoryShape(t *testing.T) {
	sc, to := RunE15(8, 24, 47)
	if sc.Msgs == 0 || to.Msgs == 0 {
		t.Fatal("no traffic measured")
	}
	if to.Msgs < 2*sc.Msgs {
		t.Fatalf("total-order causal memory should cost >=2x the messages: %d vs %d",
			to.Msgs, sc.Msgs)
	}
}

// TestAblationTotalShape asserts A1's verdict: agreement costs about
// twice the sequencer's latency (a propose/commit round against one
// extra hop) and more control traffic; on this schedule the causally
// consistent sequencer costs nothing over the plain one.
func TestAblationTotalShape(t *testing.T) {
	pt := RunAblationTotal(6, 10, 29)
	if pt.SeqMeanMs <= 0 || pt.AgreeMeanMs <= 0 {
		t.Fatalf("latencies not measured: %+v", pt)
	}
	if r := pt.AgreeMeanMs / pt.SeqMeanMs; r < 1.5 || r > 2.5 {
		t.Fatalf("agreement/sequencer latency = %.2f, want within [1.5, 2.5]: %+v", r, pt)
	}
	if pt.CausalTotalMs != pt.SeqMeanMs {
		t.Fatalf("causal-total mean %v ms != sequencer mean %v ms", pt.CausalTotalMs, pt.SeqMeanMs)
	}
	if pt.AgreeCtrlMsgs <= pt.SeqCtrlMsgs {
		t.Fatalf("agreement ctrl msgs %d should exceed the sequencer's %d", pt.AgreeCtrlMsgs, pt.SeqCtrlMsgs)
	}
	if pt.SequencerLoadPct <= 100.0/6.0 {
		t.Fatalf("sequencer load %v%% should exceed a fair share", pt.SequencerLoadPct)
	}
}

func TestTablesRenderWithoutPanic(t *testing.T) {
	// Small parameterizations of every table builder.
	tables := []*Table{
		TableE1(3),
		TableE2(5, 1),
		TableE3(5, 2),
		TableE4(3, 3),
		TableE5([]int{2, 4}, 8, 4),
		TableE5Piggyback([]int{4}, 8, 4),
		TableE5Header([]int{4}, 8, 1_000_000, 4),
		TableE6([]int{4}, 15, 0.05, 5),
		TableE6Partition([]int{1, 2}, 3, 10, 6),
		TableE6Traffic(4, 15, 6),
		TableE7([]int{4}, 7),
		TableE7Join([]int{4}, 7),
		TableE8([]int{4}, 20, 8),
		TableE9(3, 10, 9),
		TableE10([]int{3}, 3, 10),
		TableE11(11),
		TableE12([]float64{0.05}, 12),
		TableE13([]int{4}, 16, 14),
		TableE14([]int{4}, 12, 15),
		TableE15([]int{4}, 12, 16),
		TableAblationTotal([]int{4}, 6, 13),
	}
	for _, tab := range tables {
		out := tab.Render()
		if len(out) == 0 || len(tab.Rows) == 0 {
			t.Fatalf("table %s empty", tab.ID)
		}
	}
}

func TestE16ConstantVsLinearMetadata(t *testing.T) {
	// The tentpole claim: CBCAST's per-packet control bytes grow
	// linearly with N; scalecast's stay constant. Completeness must
	// hold on both substrates (senders × msgs × N deliveries).
	pts := RunE16Sweep([]int{8, 128}, 3, 1)
	byKey := map[string]E16Point{}
	for _, p := range pts {
		byKey[p.Substrate+"-"+fmtI(p.N)] = p
		wantDeliveries := uint64(e16Senders(p.N) * 3 * p.N)
		if p.Deliveries != wantDeliveries {
			t.Fatalf("%s N=%d delivered %d, want %d", p.Substrate, p.N, p.Deliveries, wantDeliveries)
		}
	}
	cb8, cb128 := byKey["cbcast-8"], byKey["cbcast-128"]
	sc8, sc128 := byKey["scalecast-8"], byKey["scalecast-128"]
	// CBCAST's varint clock grows by about a byte per member (its
	// counters stay below 128): 120 more members, at least ~+90 B.
	if cb128.CtrlBytesPerPkt < cb8.CtrlBytesPerPkt+90 {
		t.Fatalf("cbcast ctrl/pkt did not grow with N: %.1f -> %.1f",
			cb8.CtrlBytesPerPkt, cb128.CtrlBytesPerPkt)
	}
	// Scalecast stays within a few bytes (mix of acks vs data shifts).
	if diff := sc128.CtrlBytesPerPkt - sc8.CtrlBytesPerPkt; diff > 10 || diff < -10 {
		t.Fatalf("scalecast ctrl/pkt not constant: %.1f -> %.1f",
			sc8.CtrlBytesPerPkt, sc128.CtrlBytesPerPkt)
	}
	// And at N=128 the flood header is far below the vclock one.
	if sc128.CtrlBytesPerPkt*2 > cb128.CtrlBytesPerPkt {
		t.Fatalf("scalecast (%.1f B/pkt) should be well under cbcast (%.1f B/pkt) at N=128",
			sc128.CtrlBytesPerPkt, cb128.CtrlBytesPerPkt)
	}
	// Both headers are varint-encoded, so there is no crossover: even at
	// N=8 the flood header is the smaller one.
	if sc8.CtrlBytesPerPkt >= cb8.CtrlBytesPerPkt {
		t.Fatalf("scalecast (%.1f B/pkt) should be under cbcast (%.1f B/pkt) at N=8",
			sc8.CtrlBytesPerPkt, cb8.CtrlBytesPerPkt)
	}
	tab := TableE16([]int{8}, 2, 1)
	if len(tab.Rows) != 2 || len(tab.Headers) != 10 {
		t.Fatal("E16 table malformed")
	}
	for _, p := range pts {
		if p.JSON() == "" || !strings.Contains(p.JSON(), "\"substrate\"") {
			t.Fatal("E16 JSON malformed")
		}
	}
}
