#pragma once

/// The benchmark's metric catalogue, in output order. BENCHMARK.json lists
/// the same names; the unit tests check both agree and are well formed.
namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every workload reports every metric of its mode (untraced: end to end,
/// traced: per layer); a layer that does not run on a workload reads 0.
inline constexpr MetricSpec kEndToEnd[] = {
    {"scenarios_per_s", "1/s"}, {"sim_events_per_s", "1/s"},
    {"max_rate_rps", "1/s"},    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},      {"ok_frac", "ratio"},
    {"match_regret_pct", "%"},  {"glinda_error_pct", "%"},
};

inline constexpr MetricSpec kPerLayer[] = {
    {"apps.build_calls", "count"},
    {"apps.build_us_p50", "us"},
    {"analyzer.match_calls", "count"},
    {"analyzer.match_us_p50", "us"},
    {"glinda.probe_calls", "count"},
    {"glinda.probe_us_p50", "us"},
    {"glinda.solve_calls", "count"},
    {"glinda.solve_us_p50", "us"},
    {"runtime.graph_tasks", "count"},
    {"runtime.graph_edges", "count"},
    {"runtime.graph_build_us_per_task", "us"},
    {"runtime.execute_calls", "count"},
    {"runtime.execute_us_p50", "us"},
    {"runtime.execute_ns_per_event", "ns"},
    {"sim.events", "count"},
    {"strategies.run_calls", "count"},
    {"strategies.run_us_p50", "us"},
    {"strategies.run_us_p99", "us"},
    {"strategies.self_us_p50", "us"},
    {"strategies.graph_share_pct", "%"},
    {"faults.injected", "count"},
    {"faults.migrated_tasks", "count"},
    {"faults.abandoned_tasks", "count"},
    {"sweep.key_us_p50", "us"},
    {"sweep.cache_load_us_p50", "us"},
    {"sweep.cache_store_us_p50", "us"},
    {"sweep.payload_bytes_p50", "bytes"},
    {"sweep.cache_hit_ratio", "ratio"},
    {"sweep.twin_memo_hit_ratio", "ratio"},
    {"serve.parse_us_p50", "us"},
    {"serve.answer_us_p50", "us"},
    {"serve.cache_lookup_us_p50", "us"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.disk_hit_ratio", "ratio"},
    {"serve.flight_joins", "count"},
    {"serve.encode_us_p50", "us"},
    {"serve.write_us_p50", "us"},
    {"serve.response_bytes_p50", "bytes"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.overloads", "count"},
    {"serve.hit_share_pct", "%"},
    {"common.json_parse_mb_per_s", "MB/s"},
    {"common.json_dump_mb_per_s", "MB/s"},
    {"loadgen.sent", "count"},
    {"loadgen.lag_ms_p99", "ms"},
    {"loadgen.backlog_max", "count"},
    {"loadgen.latency_p50_ms", "ms"},
    {"loadgen.latency_p99_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

}  // namespace perfbench
