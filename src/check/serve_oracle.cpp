#include <memory>
#include <sstream>

#include "analyzer/strategy.hpp"
#include "apps/registry.hpp"
#include "check/oracles.hpp"
#include "obs/phase_profiler.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace hetsched::check {

namespace {

constexpr const char* kOracle = "cache-transparency-serve";

/// One process-wide loopback daemon shared by every fuzz iteration — the
/// oracle probes serving transparency, not daemon startup, and a fresh
/// Server per case would dominate the fuzz budget.
serve::Server& shared_daemon() {
  static serve::Server& daemon = []() -> serve::Server& {
    // ~Server stops the daemon and joins its workers at exit. Statics are
    // destroyed in reverse order of construction, and the workers record
    // into the phase profiler: construct that first so it outlives them.
    obs::phase_profiler();
    serve::ServeOptions options;
    options.workers = 2;
    static serve::Server server(options);
    server.start();
    return server;
  }();
  return daemon;
}

/// The query the case's scenario corresponds to. The op rotates by seed so
/// the corpus covers every served verb; analyze carries the scenario's own
/// strategy and chunk count.
serve::QueryRequest request_from(const FuzzCase& c) {
  serve::QueryRequest request;
  const std::vector<std::string>& ops = serve::served_ops();
  request.op = ops[static_cast<std::size_t>(c.seed) % ops.size()];
  request.app = apps::paper_app_id(c.scenario.app);
  request.platform = c.scenario.platform;
  request.sync = c.scenario.sync;
  request.small = true;  // the fuzz corpus must stay cheap
  if (request.op == "analyze") {
    request.strategy = analyzer::strategy_name(c.scenario.strategy);
    request.tasks = c.scenario.task_count;
    request.gantt = (c.seed & 8) != 0;
  }
  if (request.op == "explain") {
    request.tasks = c.scenario.task_count;
    request.json = (c.seed & 16) != 0;
  }
  return request;
}

}  // namespace

void check_serve_transparency(const FuzzCase& c,
                              std::vector<Violation>& out) {
  const serve::QueryRequest request = request_from(c);

  // The ground truth: what the offline verb would print (or that it would
  // fail — an inapplicable strategy/app pairing must fail identically over
  // the wire).
  std::string offline;
  bool offline_ok = true;
  try {
    offline = serve::answer(request);
  } catch (const Error&) {
    offline_ok = false;
  }

  serve::Server& daemon = shared_daemon();
  serve::QueryClient client("127.0.0.1", daemon.port());

  const serve::QueryResponse first = client.ask(request);
  const bool served_ok = first.status == serve::ResponseStatus::kOk;
  if (served_ok != offline_ok) {
    std::ostringstream os;
    os << "daemon " << (served_ok ? "answered" : "refused") << " op="
       << request.op << " app=" << request.app << " which offline "
       << (offline_ok ? "answers" : "refuses");
    out.push_back({kOracle, os.str()});
    return;
  }
  if (!offline_ok) return;  // both refuse: transparent failure

  if (first.output != offline) {
    std::ostringstream os;
    os << "served answer differs from the offline bytes for op="
       << request.op << " app=" << request.app << " (served "
       << first.output.size() << " bytes, offline " << offline.size()
       << ")";
    out.push_back({kOracle, os.str()});
  }

  // The repeat must be a cache hit AND still byte-identical — the shard
  // cache may never change what a query answers.
  const serve::QueryResponse second = client.ask(request);
  if (second.status != serve::ResponseStatus::kOk ||
      second.output != offline) {
    std::ostringstream os;
    os << "repeated query for op=" << request.op << " app=" << request.app
       << " changed its answer";
    out.push_back({kOracle, os.str()});
  }
  if (!second.cache_hit) {
    std::ostringstream os;
    os << "repeated query for op=" << request.op << " app=" << request.app
       << " was not served from the scenario cache";
    out.push_back({kOracle, os.str()});
  }
}

}  // namespace hetsched::check
