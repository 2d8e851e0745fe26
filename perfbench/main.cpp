// perfbench: the repository benchmark's measuring program. run.py builds
// it and calls
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
// The last stdout line is the result object; the line before it, prefixed
// "perfbench-record: ", is the full record (settings, detail, metrics).

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "metrics.hpp"
#include "common/json.hpp"
#include "stats.hpp"

namespace perfbench {

namespace json = hetsched::json;

namespace {

int usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload sweep_mixed|sweep_finegrain|"
               "serve_zipf --seed N --seconds S --trace 0|1 [--cli PATH] "
               "[--work-dir DIR] [--spans-out FILE]\n";
  return 2;
}

}  // namespace

std::map<std::string, SpanSummary> summarize_spans(
    const std::vector<Span>& spans) {
  std::map<std::string, SpanSummary> summary;
  const auto self = self_times(spans);
  for (const Span& span : spans) {
    SpanSummary& entry = summary[span.name];
    entry.calls += 1;
    entry.us.push_back(static_cast<double>(span.duration_ns()) / 1e3);
    const std::int64_t own = self.at(span.id) - span.nested_ns;
    entry.self_us.push_back(static_cast<double>(own) / 1e3);
    entry.total_ns += static_cast<double>(span.duration_ns());
    entry.a.push_back(static_cast<double>(span.a));
    entry.b.push_back(static_cast<double>(span.b));
    entry.a_total += static_cast<double>(span.a);
  }
  return summary;
}

void finish_trace(const Options& options, const SpanRecorder& recorder,
                  Result& result,
                  std::map<std::string, SpanSummary>& summary) {
  const std::vector<Span> spans = recorder.collect();
  for (const std::string& problem : validate_spans(spans))
    result.mismatch("trace: " + problem);
  if (!options.spans_out.empty()) {
    std::ofstream file(options.spans_out);
    file << spans_to_json(spans) << "\n";
  }
  summary = summarize_spans(spans);
  result.add("trace.spans", static_cast<double>(spans.size()), "count");
}

int run_main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = std::stoull(value);
    else if (flag == "--seconds") options.seconds = std::stod(value);
    else if (flag == "--trace") options.trace = value == "1";
    else if (flag == "--cli") options.cli = value;
    else if (flag == "--work-dir") options.work_dir = value;
    else if (flag == "--spans-out") options.spans_out = value;
    else return usage("unknown flag " + flag);
  }
  // Start from a written-back file system: whatever ran before (a build,
  // an earlier run's clean-up) must not be paid for inside this run.
  std::filesystem::create_directories(options.work_dir);
  settle_disk(options.work_dir);
  Result result;
  if (options.workload == "sweep_mixed" ||
      options.workload == "sweep_finegrain") {
    result = run_sweep_workload(options);
  } else if (options.workload == "serve_zipf") {
    if (options.cli.empty()) return usage("serve_zipf needs --cli");
    result = run_serve_workload(options);
  } else {
    return usage("unknown workload '" + options.workload + "'");
  }

  json::Value metrics{json::Value::Object{}};
  const auto emit = [&](const MetricSpec& spec, bool required) {
    auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end()) {
      if (required) {
        result.mismatch(std::string("metric ") + spec.name + " not measured");
        return;
      }
      it = result.metrics.emplace(spec.name, std::make_pair(0.0, spec.unit))
               .first;
    }
    json::Value entry;
    entry.set("value", json::Value(it->second.first));
    entry.set("unit", json::Value(std::string(spec.unit)));
    metrics.set(spec.name, std::move(entry));
    std::cout << spec.name << " = " << it->second.first << " " << spec.unit
              << "\n";
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec, false);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec, true);
  }
  for (const std::string& mismatch : result.mismatches)
    std::cerr << "perfbench: MISMATCH: " << mismatch << "\n";

  json::Value settings = result.settings;
  settings.set("workload", json::Value(options.workload));
  settings.set("seconds", json::Value(options.seconds));
  settings.set("trace", json::Value(options.trace));
  settings.set("nproc", json::Value(static_cast<int>(
                            std::thread::hardware_concurrency())));
  settings.set("build_type", json::Value(PERFBENCH_BUILD_TYPE));
  settings.set("compiler", json::Value(PERFBENCH_COMPILER));

  json::Value line;
  line.set("correct", json::Value(result.correct));
  line.set("attempted", json::Value(result.attempted));
  line.set("failed", json::Value(result.failed));
  line.set("metrics", metrics);

  json::Value record = line;
  record.set("seed", json::Value(static_cast<std::int64_t>(options.seed)));
  record.set("settings", std::move(settings));
  record.set("detail", result.detail);
  json::Value mismatches{json::Value::Array{}};
  for (const std::string& mismatch : result.mismatches)
    mismatches.push_back(json::Value(mismatch));
  record.set("mismatches", std::move(mismatches));
  std::cout << "perfbench-record: " << record.dump() << "\n";
  std::cout << line.dump() << std::endl;
  return result.correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 3;
  }
}
