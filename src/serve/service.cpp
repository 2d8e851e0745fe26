#include "serve/service.hpp"

#include <map>
#include <sstream>

#include "analyzer/matchmaker.hpp"
#include "apps/registry.hpp"
#include "apps/spectral_dag.hpp"
#include "apps/tree_reduction.hpp"
#include "apps/triangular.hpp"
#include "apps/unstable_loop.hpp"
#include "common/error.hpp"
#include "obs/observability.hpp"
#include "sim/gantt.hpp"
#include "sim/trace_stats.hpp"
#include "strategies/explain.hpp"
#include "strategies/strategy_runner.hpp"

namespace hetsched::serve {

namespace {

const std::map<std::string, apps::PaperApp>& paper_app_ids() {
  static const std::map<std::string, apps::PaperApp> names = {
      {"matrixmul", apps::PaperApp::kMatrixMul},
      {"blackscholes", apps::PaperApp::kBlackScholes},
      {"nbody", apps::PaperApp::kNbody},
      {"hotspot", apps::PaperApp::kHotSpot},
      {"stream-seq", apps::PaperApp::kStreamSeq},
      {"stream-loop", apps::PaperApp::kStreamLoop},
  };
  return names;
}

strategies::StrategyOptions options_from(const QueryRequest& request) {
  strategies::StrategyOptions options;
  options.sync_between_kernels = request.sync;
  if (request.tasks > 0) options.task_count = request.tasks;
  return options;
}

std::string answer_match(const QueryRequest& request,
                         const hw::PlatformSpec& platform) {
  auto app = make_named_app(request.app, platform, request.small);
  analyzer::AppDescriptor descriptor = app->descriptor();
  if (request.sync && descriptor.sync == analyzer::SyncReason::kNone)
    descriptor.sync = analyzer::SyncReason::kHostPostProcessing;
  return analyzer::Matchmaker{}.explain(descriptor);
}

std::string answer_explain(const QueryRequest& request,
                           const hw::PlatformSpec& platform) {
  auto app = make_named_app(request.app, platform, request.small);
  const strategies::DecisionExplanation explanation =
      strategies::explain_decision(*app, options_from(request));
  if (request.json) return explanation.to_json() + "\n";
  return explanation.render();
}

std::string answer_analyze(const QueryRequest& request,
                           const hw::PlatformSpec& platform,
                           AnswerTrace* trace) {
  // Observability recording is enabled only when a trace sink was supplied;
  // either way the run outcome — and therefore the answer bytes — is the
  // same (recording is passive).
  auto app = make_named_app(request.app, platform, request.small,
                            /*record_trace=*/true,
                            /*record_obs=*/trace != nullptr);
  strategies::StrategyRunner runner(*app, options_from(request));
  const strategies::StrategyResult result =
      request.strategy.empty()
          ? runner.run_matched().result
          : runner.run(analyzer::strategy_from_name(request.strategy));
  if (trace != nullptr && result.report.obs != nullptr)
    trace->chunk_spans = result.report.obs->spans;
  std::ostringstream os;
  os << "strategy: " << analyzer::strategy_name(result.kind) << "\n";
  os << sim::format_trace_stats(sim::analyze_trace(result.report.trace));
  if (request.gantt) os << "\n" << sim::render_gantt(result.report.trace);
  return os.str();
}

}  // namespace

std::unique_ptr<apps::Application> make_named_app(
    const std::string& name, const hw::PlatformSpec& platform, bool small,
    bool record_trace, bool record_obs) {
  apps::Application::Config extension;
  extension.functional = small;
  extension.record_trace = record_trace;
  extension.record_observability = record_obs;
  if (name == "spectral-dag") {
    extension.items = small ? 4096 : 16'777'216;
    extension.iterations = small ? 3 : 10;
    return std::make_unique<apps::SpectralDagApp>(platform, extension);
  }
  if (name == "tree-reduction") {
    extension.items = small ? 100'000 : 134'217'728;
    extension.iterations = 1;
    return std::make_unique<apps::TreeReductionApp>(platform, extension);
  }
  if (name == "triangular-mv") {
    extension.items = small ? 512 : 16'384;
    extension.iterations = 1;
    return std::make_unique<apps::TriangularMvApp>(platform, extension);
  }
  if (name == "unstable-loop") {
    extension.items = small ? 4096 : 8'388'608;
    extension.iterations = small ? 4 : 8;
    return std::make_unique<apps::UnstableLoopApp>(platform, extension);
  }
  auto it = paper_app_ids().find(name);
  if (it == paper_app_ids().end())
    throw InvalidArgument(
        "unknown app '" + name +
        "' (matrixmul, blackscholes, nbody, hotspot, stream-seq, "
        "stream-loop, spectral-dag, tree-reduction, triangular-mv, "
        "unstable-loop)");
  apps::Application::Config config =
      small ? apps::test_config(it->second) : apps::paper_config(it->second);
  config.record_trace = record_trace;
  config.record_observability = record_obs;
  return apps::make_paper_app(it->second, platform, config);
}

const std::vector<std::string>& served_ops() {
  static const std::vector<std::string> kOps = {"match", "explain",
                                                "analyze"};
  return kOps;
}

std::string answer(const QueryRequest& request, AnswerTrace* trace) {
  const hw::PlatformSpec platform = hw::platform_by_name(request.platform);
  if (request.op == "match") return answer_match(request, platform);
  if (request.op == "explain") return answer_explain(request, platform);
  if (request.op == "analyze")
    return answer_analyze(request, platform, trace);
  throw InvalidArgument("unknown op '" + request.op +
                        "' (match, explain, analyze, shutdown, trace-dump)");
}

std::string answer(const QueryRequest& request) {
  return answer(request, nullptr);
}

}  // namespace hetsched::serve
