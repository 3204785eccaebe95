package main

// decl declares one metric: BENCHMARK.json carries the same names and
// units (bench_test.go holds the two to each other).
type decl struct {
	name, unit string
}

// endToEnd are the numbers a user of the system sees, from the
// untraced run. failed_share is printed beside them but travels in the
// result's attempted/failed counts, because it is 0 on a healthy run.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"casts_per_s", "1/s"},
	{"deliver_p50_us", "us"},
	{"deliver_p99_us", "us"},
	{"cpu_us_per_delivery", "us"},
	{"wire_bytes_per_delivery", "B"},
}

// perLayer are the traced run's numbers, layer = module name. A metric
// that does not apply to a workload (tcpnet.* on sim-*, sim.* on tcp-*)
// reads 0 there.
var perLayer = []decl{
	{"driver.late_p50_us", "us"},
	{"driver.late_p99_us", "us"},
	{"driver.trace_overhead_pct", "%"},
	{"driver.chain_cover_pct", "%"},
	{"multicast.cast_self_ns", "ns"},
	{"multicast.cast_p50_us", "us"},
	{"multicast.handle_self_ns", "ns"},
	{"multicast.timer_self_ns_per_cast", "ns"},
	{"multicast.holdback_p50_us", "us"},
	{"multicast.holdback_p99_us", "us"},
	{"multicast.held_share", "ratio"},
	{"multicast.holdback_peak", "count"},
	{"multicast.data_msgs_per_cast", "count"},
	{"multicast.ctrl_msgs_per_cast", "count"},
	{"multicast.retrans_per_cast", "count"},
	{"multicast.casts_per_order_msg", "count"},
	{"stability.peak_unstable_msgs", "count"},
	{"stability.peak_unstable_bytes", "B"},
	{"stability.unstable_at_drain", "count"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.data_frame_bytes", "B"},
	{"wire.header_bytes", "B"},
	{"wire.size_model_err_pct", "%"},
	{"tcpnet.send_ns", "ns"},
	{"tcpnet.transit_p50_us", "us"},
	{"tcpnet.transit_p99_us", "us"},
	{"tcpnet.frames_per_flush", "count"},
	{"tcpnet.bytes_per_frame", "B"},
	{"tcpnet.outbound_depth_p99", "count"},
	{"tcpnet.dispatch_wait_p99_us", "us"},
	{"tcpnet.drops", "count"},
	{"tcpnet.reconnects", "count"},
	{"transport.ctrl_bytes_per_delivery", "B"},
	{"transport.lost_msgs", "count"},
	{"sim.events_per_delivery", "count"},
	{"sim.ns_per_event", "ns"},
	{"runtime.allocs_per_delivery", "count"},
	{"runtime.alloc_bytes_per_delivery", "B"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.peak_rss_mb", "MB"},
	{"runtime.cpu_util_sat", "ratio"},
}

// declared returns the metric list a run in the given mode reports.
func declared(traced bool) []decl {
	if traced {
		return perLayer
	}
	return endToEnd
}
