package main

import "strings"

// layerMetrics is every per-layer metric of a traced run, in the order
// BENCHMARK.json lists them. A traced run of any workload reports all
// of them; a layer the workload does not exercise reads 0, which is the
// point of running the layers on separate workloads. METRICS.md says
// which end-to-end metric each should move.
var layerMetrics = []string{
	"sim.events", "sim.shards", "sim.events_per_node", "sim.ns_per_event",

	"core.handler_us_p50.join", "core.handler_us_p50.get_close_set",
	"core.handler_us_p50.call_setup", "core.handler_us_p50.relay_open",
	"core.handler_us_p50.voice_forward",
	"core.setup_call_us_p50", "core.send_voice_relayed_us_p50",
	"core.select_close_relay_us_p50", "core.closeset_build_msgs",

	"transport.tcp_calls_per_call", "transport.tcp_call_us_p50",
	"transport.tcp_overhead_us_p50", "transport.frame_bytes_per_call",
	"transport.datagrams_per_voice_pkt", "transport.chaos_dropped_share",

	"udp.send_voice_ns_p50", "udp.relay_forward_ns_p50", "udp.flow_rx_ns_p50",
	"nat.inbound_ns_p50", "udp.relay_forwarded",
	"udp.rung_share.direct", "udp.rung_share.punched", "udp.rung_share.relayed",

	"session.probe_calls", "session.paths_per_probe_call",
	"session.probe_virtual_ms_p50", "session.keepalives",
	"session.switches", "session.failovers",

	"overlay.optimal_onehop_us_p50",
	"eval.method_run_us_p50.ASAP", "eval.method_run_us_p50.DEDI",
	"eval.method_run_us_p50.RAND", "eval.method_run_us_p50.MIX",
	"eval.method_run_us_p50.OPT",
	"eval.messages_per_session.ASAP", "eval.messages_per_session.DEDI",
	"eval.messages_per_session.RAND", "eval.messages_per_session.MIX",
	"eval.build_world_s",

	"runtime.alloc_bytes_per_op", "runtime.gc_cpu_share",
	"runtime.sched_latency_p50_us", "runtime.goroutines_peak",

	"cpu_share.core", "cpu_share.sim", "cpu_share.transport", "cpu_share.bgp",
	"cpu_share.asgraph", "cpu_share.math_rand", "cpu_share.runtime_sched",
	"cpu_share.runtime_stack", "cpu_share.gc", "cpu_share.other",

	"trace.spans",
	"trace.overhead.setup_s", "trace.overhead.ok_share",
	"trace.overhead.peak_rss_mb", "trace.overhead.work_per_s",
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasPrefix(name, "trace.overhead."), strings.HasPrefix(name, "cpu_share."),
		strings.Contains(name, "share"):
		return "ratio"
	case strings.Contains(name, "_us_p50"), strings.HasSuffix(name, "_us"):
		return "us"
	case strings.Contains(name, "_ns_p50"), strings.HasSuffix(name, "ns_per_event"):
		return "ns"
	case strings.Contains(name, "_ms_p50"):
		return "virtual_ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.Contains(name, "bytes"):
		return "B"
	}
	return "count"
}
