package main

import "fmt"

// stabilityPeaks is the paper's section 5 buffer, read from the public
// tracker: the largest unstable buffer any member held, and what was
// left after the drain.
type stabilityPeaks struct {
	msgs, bytes  int64
	atDrain      int64
	membersAsked int64
}

// observe folds one member's tracker in; call it on the member's
// dispatch context.
func (s *stabilityPeaks) observe(e *endpoint) {
	st := e.m.Stability()
	if st == nil {
		return
	}
	s.membersAsked++
	if v := st.HighWater(); v > s.msgs {
		s.msgs = v
	}
	if v := st.BytesHighWater(); v > s.bytes {
		s.bytes = v
	}
	s.atDrain += int64(st.Unstable())
}

// layerInputs is what the layer metrics every workload shares are
// computed from.
type layerInputs struct {
	tt         *traceTotals
	timerSlot  int   // aggregate slot timer cost per cast is read from
	deliveries int64 // application deliveries in the window `use` covers
	use        usageDelta
	gcPauseNs  uint64
	appPayload int
	stab       stabilityPeaks
	// Throughput of the same work untraced and traced, for the tracing
	// overhead; cpuUtil is CPU s per wall s of the untraced one.
	plainRate, tracedRate, cpuUtil float64
}

// addSharedLayers reports the per-layer metrics that mean the same on
// sockets and on the simulator.
func addSharedLayers(res *result, in layerInputs) {
	tt := in.tt
	var sends [numClasses]int64
	var allCasts int64
	for s := range tt.agg {
		allCasts += tt.agg[s][spanCast].n
		for c := range sends {
			sends[c] += tt.sends[s][c]
		}
	}
	perCast := func(n int64) float64 {
		if allCasts == 0 {
			return 0
		}
		return float64(n) / float64(allCasts)
	}
	handle := tt.agg[0][spanHandle]
	res.add("multicast.cast_self_ns", tt.selfMean(0, spanCast), tt.agg[0][spanCast].n, "Member.Multicast minus nested Send, mean per call, saturated phase")
	res.add("multicast.handle_self_ns", tt.selfMean(0, spanHandle), handle.n, "inbound handler minus nested Send and deliver callback, mean per call, saturated phase")
	timers := tt.agg[in.timerSlot][spanTimer]
	timerCasts := tt.agg[in.timerSlot][spanCast].n
	if timerCasts > 0 {
		res.add("multicast.timer_self_ns_per_cast", float64(timers.self)/float64(timerCasts), timers.n, "After callbacks (ack flush, NACK, order flush) minus nested Send, per cast")
	}
	res.add("multicast.holdback_p50_us", tt.hold.quantile(0.5)/1e3, tt.hold.n, "data message's handler entry -> its deliver callback, timed phase")
	res.add("multicast.holdback_p99_us", tt.hold.quantile(0.99)/1e3, tt.hold.n, fmt.Sprintf("%d samples beyond", tt.hold.beyond(0.99)))
	if tt.timed > 0 {
		res.add("multicast.held_share", float64(tt.held)/float64(tt.timed), tt.timed, "deliveries made outside the arrival's own handler call")
	}
	res.add("multicast.holdback_peak", float64(tt.pendingPeak), handle.n, "max PendingCount after any handler call")
	res.add("multicast.data_msgs_per_cast", perCast(sends[classData]), sends[classData], "Sends of DataMsg, self included")
	res.add("multicast.ctrl_msgs_per_cast", perCast(sends[classCtrl]+sends[classOrder]), sends[classCtrl]+sends[classOrder], "Sends of acks, NACKs and order announcements")
	res.add("multicast.retrans_per_cast", perCast(sends[classRetrans]), sends[classRetrans], "Sends of RetransMsg")
	if tt.orderMsgs > 0 {
		res.add("multicast.casts_per_order_msg", float64(allCasts)/float64(tt.orderMsgs), tt.orderMsgs, "casts per distinct order announcement")
	}

	res.add("stability.peak_unstable_msgs", float64(in.stab.msgs), in.stab.membersAsked, "max over members of Stability().HighWater()")
	res.add("stability.peak_unstable_bytes", float64(in.stab.bytes), in.stab.membersAsked, "max over members of Stability().BytesHighWater()")
	res.add("stability.unstable_at_drain", float64(in.stab.atDrain), in.stab.membersAsked, "sum of Stability().Unstable() after the drain; must be 0")

	ws := wireProbe(tt.captured, in.appPayload)
	res.add("wire.encode_ns", ws.encodeNs, int64(ws.frames), "wire.MarshalAppend over every 1000th payload seen at Send, replayed off-path")
	res.add("wire.decode_ns", ws.decodeNs, int64(ws.frames), "wire.Unmarshal over the same sample")
	res.add("wire.data_frame_bytes", ws.dataFrameBytes, int64(ws.dataFrames), "mean encoded DataMsg body")
	res.add("wire.header_bytes", ws.headerBytes, int64(ws.dataFrames), "encoded DataMsg body minus application payload")
	res.add("wire.size_model_err_pct", ws.sizeModelErrPct, int64(ws.frames), "mean |transport.ApproxSize - wire.EncodedSize| / encoded")

	if in.deliveries > 0 {
		res.add("runtime.allocs_per_delivery", float64(in.use.mallocs)/float64(in.deliveries), in.deliveries, "heap objects allocated, input payloads included")
		res.add("runtime.alloc_bytes_per_delivery", float64(in.use.bytes)/float64(in.deliveries), in.deliveries, "heap bytes allocated")
	}
	res.add("runtime.gc_pause_ms", float64(in.gcPauseNs)/1e6, 1, "stop-the-world pause total over the traced phases")
	res.add("runtime.peak_rss_mb", peakRSSMB(), 1, "getrusage ru_maxrss")
	res.add("runtime.cpu_util_sat", in.cpuUtil, 1, "CPU s per wall s while saturated, untraced")
	if in.plainRate > 0 {
		res.add("driver.trace_overhead_pct", 100*(in.plainRate-in.tracedRate)/in.plainRate, 1,
			fmt.Sprintf("casts_per_s untraced %.0f vs traced %.0f", in.plainRate, in.tracedRate))
	}
}
