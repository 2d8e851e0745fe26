// serve_zipf: a `hetsched_cli serve` daemon on loopback, fed an open loop of
// seeded Poisson arrivals with Zipf-distributed keys over two pipelined
// keep-alive connections from one generator thread. Latency is timed from
// each request's scheduled send time, at a nominal rate and along a rate
// ladder. Every ok answer is checked against in-process serve::answer.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <deque>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "analyzer/matchmaker.hpp"
#include "apps/registry.hpp"
#include "bench.hpp"
#include "common/error.hpp"
#include "hw/platform.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "serve/shard_cache.hpp"
#include "stats.hpp"
#include "strategies/strategy_runner.hpp"
#include "sweep/cache.hpp"
#include "workload.hpp"

namespace perfbench {

namespace hs = hetsched;
namespace fs = std::filesystem;
using hs::serve::QueryRequest;
using hs::serve::QueryResponse;
using Scope = SpanRecorder::Scope;

namespace {

/// Fixed load shape (recorded in the result's settings).
constexpr unsigned kConnections = 2;
constexpr unsigned kWorkers = 2;
constexpr int kSetupReps = 13;
constexpr double kZipfExponent = 1.0;
constexpr double kPrefilledShare = 0.3;
constexpr double kNominalRate = 2000.0;
constexpr double kLatencyLimitMs = 25.0;
constexpr double kRungSeconds = 0.5;
/// Independent bisections of the ladder; max_rate_rps is their median.
constexpr int kLadderSearches = 3;
/// A failed rung is run once more before it counts as failed, so a single
/// host stall does not decide the ladder.
constexpr int kRungTries = 2;
constexpr double kDrainSeconds = 5.0;
/// Share of --seconds the nominal phase lasts.
constexpr double kNominalShare = 0.4;
/// Unanswered requests per connection during first touches: enough that
/// a worker always has the next frame queued, however late the generator
/// wakes, and few enough that the two connections finish together.
constexpr std::size_t kFirstTouchDepth = 4;

/// Geometric rate ladder, 1000 to 32000 req/s in steps of 2^(1/12).
std::vector<double> rate_ladder() {
  std::vector<double> rungs;
  for (int i = 0; i <= 60; ++i)
    rungs.push_back(std::round(1000.0 * std::pow(2.0, i / 12.0)));
  return rungs;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A `hetsched_cli serve` child process; stopping (SIGTERM, graceful
/// drain, then SIGKILL after 10 s) and reaping happen in the destructor, so
/// no exit path leaves a daemon behind.
class Daemon {
 public:
  Daemon(const Options& options, const std::string& store) {
    int out[2];
    HS_REQUIRE(::pipe(out) == 0, "pipe failed");
    const std::string workers = std::to_string(kWorkers);
    pid_ = ::fork();
    HS_REQUIRE(pid_ >= 0, "fork failed");
    if (pid_ == 0) {
      ::dup2(out[1], 1);
      ::close(out[0]);
      ::close(out[1]);
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, 2);
      ::execl(options.cli.c_str(), options.cli.c_str(), "serve", "--port",
              "0", "--announce-port", "--workers", workers.c_str(),
              "--cache-dir", store.c_str(), "--log-level", "off",
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(out[1]);
    std::string line;
    const double deadline = now_s() + 30.0;
    while (line.find('\n') == std::string::npos && now_s() < deadline) {
      pollfd fd{out[0], POLLIN, 0};
      if (::poll(&fd, 1, 100) <= 0) continue;
      char buffer[64];
      const ssize_t n = ::read(out[0], buffer, sizeof buffer);
      if (n <= 0) break;
      line.append(buffer, static_cast<std::size_t>(n));
    }
    ::close(out[0]);
    if (line.rfind("PORT ", 0) == 0) port_ = std::stoi(line.substr(5));
    if (port_ <= 0) {
      stop();
      throw hs::StateError("daemon did not announce a port");
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const double deadline = now_s() + 10.0;
    while (::waitpid(pid_, nullptr, WNOHANG) == 0) {
      if (now_s() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        break;
      }
      ::usleep(2000);
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  HS_REQUIRE(fd >= 0, "socket failed");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof address) !=
      0) {
    ::close(fd);
    throw hs::StateError("connect to daemon failed");
  }
  return fd;
}

/// Closed-loop request/response of one frame (set-up warm-up). Nothing
/// else is in flight on `fd`, so the response is all there is to read.
void ask(int fd, const std::string& frame) {
  hs::serve::write_all(fd, frame);
  std::string response;
  char buffer[1 << 16];
  while (response.find('\n') == std::string::npos) {
    const ssize_t r = ::recv(fd, buffer, sizeof buffer, 0);
    if (r <= 0) throw hs::StateError("daemon closed a warm-up connection");
    response.append(buffer, static_cast<std::size_t>(r));
  }
}

struct Connection {
  int fd = -1;
  std::string in;
  std::size_t in_pos = 0;
  std::string out;
  std::size_t out_pos = 0;
  std::deque<std::size_t> waiting;
};

struct Sample {
  double due = 0.0;
  double sent = 0.0;
  double received = -1.0;  ///< -1: no response
  std::uint32_t key = 0;
  std::uint32_t connection = 0;
  std::string line;
};

struct PhaseRun {
  double rate = 0.0;
  std::vector<Sample> samples;
  std::size_t backlog_max = 0;
  std::size_t backlog_end = 0;  ///< outstanding when the last request left
  std::size_t unanswered = 0;   ///< still outstanding at the drain deadline
  bool connection_lost = false;
};

/// Sends every request of `phase` at its scheduled time on the connection
/// with the fewest unanswered requests (a request never queues behind a
/// slow compute while the other connection is idle), and collects the
/// in-order responses until all arrived or kDrainSeconds after the last
/// send. With `depth` > 0 a request also waits until that connection has
/// fewer than `depth` unanswered (a closed loop that keeps every worker
/// busy until the last request).
PhaseRun run_phase(std::vector<Connection>& connections,
                   const FramePhase& phase,
                   const std::vector<std::string>& frames,
                   std::size_t depth = 0) {
  PhaseRun run;
  run.rate = phase.rate;
  const std::size_t n = phase.at.size();
  run.samples.resize(n);
  const double start = now_s() + 0.002;
  std::size_t next = 0, received = 0, outstanding = 0;
  double deadline = std::numeric_limits<double>::infinity();
  std::vector<pollfd> fds(connections.size());
  char buffer[1 << 16];
  while (received < n) {
    double t = now_s();
    bool full = false;
    while (next < n && start + phase.at[next] <= t) {
      Connection& connection = *std::min_element(
          connections.begin(), connections.end(),
          [](const Connection& x, const Connection& y) {
            return x.waiting.size() < y.waiting.size();
          });
      full = depth > 0 && connection.waiting.size() >= depth;
      if (full) break;
      connection.out += frames[phase.keys[next]];
      connection.waiting.push_back(next);
      Sample& sample = run.samples[next];
      sample.due = start + phase.at[next];
      sample.sent = t;
      sample.key = phase.keys[next];
      sample.connection =
          static_cast<std::uint32_t>(&connection - connections.data());
      ++next;
      ++outstanding;
    }
    run.backlog_max = std::max(run.backlog_max, outstanding);
    if (next == n && deadline == std::numeric_limits<double>::infinity()) {
      deadline = t + kDrainSeconds;
      run.backlog_end = outstanding;
    }
    if (t > deadline || run.connection_lost) break;
    for (std::size_t c = 0; c < connections.size(); ++c) {
      Connection& connection = connections[c];
      while (connection.out_pos < connection.out.size()) {
        const ssize_t w = ::send(
            connection.fd, connection.out.data() + connection.out_pos,
            connection.out.size() - connection.out_pos,
            MSG_NOSIGNAL | MSG_DONTWAIT);
        if (w > 0) {
          connection.out_pos += static_cast<std::size_t>(w);
        } else {
          if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
            run.connection_lost = true;
          break;
        }
      }
      if (connection.out_pos == connection.out.size()) {
        connection.out.clear();
        connection.out_pos = 0;
      }
      fds[c] = {connection.fd,
                static_cast<short>(POLLIN | (connection.out.empty() ? 0
                                                                    : POLLOUT)),
                0};
    }
    const double wake = full       ? t + kDrainSeconds
                        : next < n ? start + phase.at[next]
                                   : deadline;
    const double wait = std::max(0.0, wake - now_s());
    timespec timeout{static_cast<time_t>(wait),
                     static_cast<long>((wait - std::floor(wait)) * 1e9)};
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    // A full window that saw no answer for kDrainSeconds ends the phase.
    if (ready == 0 && full) break;
    if (ready <= 0) continue;
    t = now_s();
    for (std::size_t c = 0; c < connections.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& connection = connections[c];
      for (;;) {
        const ssize_t r =
            ::recv(connection.fd, buffer, sizeof buffer, MSG_DONTWAIT);
        if (r > 0) {
          connection.in.append(buffer, static_cast<std::size_t>(r));
          continue;
        }
        if (r == 0 || (errno != EAGAIN && errno != EWOULDBLOCK))
          run.connection_lost = true;
        break;
      }
      for (;;) {
        const std::size_t newline = connection.in.find('\n', connection.in_pos);
        if (newline == std::string::npos || connection.waiting.empty()) break;
        Sample& sample = run.samples[connection.waiting.front()];
        connection.waiting.pop_front();
        sample.received = t;
        sample.line.assign(connection.in, connection.in_pos,
                           newline - connection.in_pos);
        connection.in_pos = newline + 1;
        ++received;
        --outstanding;
      }
      if (connection.in_pos == connection.in.size()) {
        connection.in.clear();
        connection.in_pos = 0;
      }
    }
  }
  // Whatever is still unanswered is dropped with its connection state.
  run.unanswered = n - received;
  for (Connection& connection : connections) {
    connection.waiting.clear();
    connection.out.clear();
    connection.out_pos = 0;
  }
  return run;
}

/// Replaces the connections after a phase that left responses unread, so
/// a late answer can never be matched to a later phase's request.
void reconnect(std::vector<Connection>& connections, int port) {
  for (Connection& connection : connections) {
    ::close(connection.fd);
    connection = Connection{};
    connection.fd = connect_loopback(port);
  }
}

/// A response as the benchmark judges it.
struct Verdict {
  bool ok = false;
  bool cache_hit = false;
  double latency_ms = std::numeric_limits<double>::infinity();
};

struct PhaseSummary {
  std::vector<Verdict> verdicts;
  std::int64_t failed = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double throughput = 0.0;
  double window_s = 0.0;  ///< first scheduled send to last ok response
  double lag_p99_ms = 0.0;
};

/// Parses every response; a failed, refused or missing response counts as
/// an infinite latency. `answers` collects ok outputs per key for the
/// output check.
PhaseSummary summarize(const PhaseRun& run,
                       std::map<std::uint32_t, std::set<std::string>>& answers) {
  PhaseSummary summary;
  std::vector<double> latencies, lags;
  double first = std::numeric_limits<double>::infinity(), last = 0.0;
  std::int64_t ok = 0;
  for (const Sample& sample : run.samples) {
    Verdict verdict;
    if (sample.received >= 0.0) {
      try {
        const QueryResponse response =
            QueryResponse::from_json(hs::json::Value::parse(sample.line));
        verdict.ok = response.status == hs::serve::ResponseStatus::kOk;
        verdict.cache_hit = response.cache_hit;
        if (verdict.ok) answers[sample.key].insert(response.output);
      } catch (const hs::Error&) {
        verdict.ok = false;
      }
    }
    if (verdict.ok) {
      verdict.latency_ms = (sample.received - sample.due) * 1e3;
      ++ok;
      last = std::max(last, sample.received);
    } else {
      ++summary.failed;
    }
    first = std::min(first, sample.due);
    latencies.push_back(verdict.latency_ms);
    lags.push_back((sample.sent - sample.due) * 1e3);
    summary.verdicts.push_back(verdict);
  }
  summary.p50_ms = quantile(latencies, 0.5);
  summary.p99_ms = quantile(latencies, 0.99);
  summary.lag_p99_ms = quantile(lags, 0.99);
  summary.window_s = last > first ? last - first : 0.0;
  summary.throughput =
      last > first ? static_cast<double>(ok) / (last - first) : 0.0;
  return summary;
}

bool rung_passes(const PhaseRun& run, const PhaseSummary& summary) {
  const double allowed_backlog =
      std::max(16.0, run.rate * kLatencyLimitMs / 1e3);
  return summary.failed == 0 && !run.connection_lost &&
         summary.p99_ms <= kLatencyLimitMs &&
         static_cast<double>(run.backlog_end) <= allowed_backlog;
}

/// GET /metrics from the daemon.
std::string scrape_metrics(int port) {
  const int fd = connect_loopback(port);
  hs::serve::write_all(fd, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  std::string text;
  char buffer[4096];
  for (;;) {
    const ssize_t r = ::recv(fd, buffer, sizeof buffer, 0);
    if (r <= 0) break;
    text.append(buffer, static_cast<std::size_t>(r));
  }
  ::close(fd);
  return text;
}

/// Sum of every sample of counter `name` whose labels contain `labels`.
double prometheus_sum(const std::string& text, const std::string& name,
                      const std::string& labels) {
  double total = 0.0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t end = std::min(text.find('\n', pos), text.size());
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.rfind(name + "{", 0) == 0 &&
        line.find(labels) != std::string::npos)
      total += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
  }
  return total;
}

/// The key population's paper-app groups as sweep scenarios (all seven
/// strategies each), for the matchmaker accuracy metrics.
std::vector<hs::sweep::Scenario> served_cells(
    const std::vector<QueryRequest>& keys) {
  std::set<std::string> seen;
  std::vector<hs::sweep::Scenario> cells;
  for (const QueryRequest& request : keys) {
    hs::apps::PaperApp app;
    try {
      app = hs::apps::paper_app_from_name(request.app);
    } catch (const hs::Error&) {
      continue;  // extension apps have no Table I cell
    }
    if (!seen.insert(request.app + "@" + request.platform +
                     (request.sync ? "+sync" : ""))
             .second)
      continue;
    hs::sweep::Scenario cell;
    cell.app = app;
    cell.platform = request.platform;
    cell.sync = request.sync;
    for (hs::analyzer::StrategyKind kind : hs::analyzer::paper_strategies()) {
      cell.strategy = kind;
      cells.push_back(cell);
    }
  }
  return cells;
}

/// In-process replay of frames through the serve layers: parse, shard-cache
/// lookup (answer on a miss), encode, and the socket write of the encoded
/// frame to a drained loopback peer. One thread per connection.
struct ReplayStats {
  std::string error;  ///< what a replay thread threw, if anything
  double seconds = 0.0;
  std::int64_t joins = 0;
  hs::serve::ShardCacheCounters counters;
};

ReplayStats replay_frames(SpanRecorder* recorder,
                          const std::vector<std::string>& frames,
                          const std::string& store_dir,
                          std::uint64_t unit_base) {
  const hs::sweep::ResultCache disk(store_dir);
  hs::serve::ShardedScenarioCache cache(8, &disk);
  // Loopback pairs: writer end per replay thread, reader end drained.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::bind(listener, reinterpret_cast<sockaddr*>(&address), sizeof address);
  ::listen(listener, 4);
  socklen_t length = sizeof address;
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&address), &length);
  std::vector<int> writers, readers;
  for (unsigned t = 0; t < kConnections; ++t) {
    writers.push_back(connect_loopback(ntohs(address.sin_port)));
    readers.push_back(::accept(listener, nullptr, nullptr));
  }
  ::close(listener);
  std::thread drain([&readers] {
    std::vector<pollfd> fds;
    for (int fd : readers) fds.push_back({fd, POLLIN, 0});
    std::size_t open = fds.size();
    char buffer[1 << 16];
    while (open > 0) {
      if (::poll(fds.data(), fds.size(), 1000) <= 0) continue;
      for (pollfd& fd : fds) {
        if (fd.fd < 0 || (fd.revents & (POLLIN | POLLHUP | POLLERR)) == 0)
          continue;
        if (::recv(fd.fd, buffer, sizeof buffer, 0) <= 0) {
          ::close(fd.fd);
          fd.fd = -1;
          --open;
        }
      }
    }
  });

  std::atomic<std::int64_t> joins{0};
  const auto replay_worker = [&](unsigned t) {
    for (std::size_t i = t; i < frames.size(); i += kConnections) {
      Scope root(recorder, "serve.request", unit_base + i);
      const std::string& frame = frames[i];
      QueryRequest request;
      {
        Scope span(recorder, "serve.parse");
        hs::json::Value value;
        {
          Scope inner(recorder, "common.json_parse");
          value = hs::json::Value::parse(
              std::string_view(frame).substr(0, frame.size() - 1));
          inner.set_a(static_cast<std::int64_t>(frame.size()));
        }
        request = QueryRequest::from_json(value);
      }
      QueryResponse response;
      {
        Scope span(recorder, "serve.cache_lookup");
        const auto lookup = cache.get_or_compute(request.cache_key(), [&] {
          const hs::hw::PlatformSpec platform =
              hs::hw::platform_by_name(request.platform);
          std::unique_ptr<hs::apps::Application> app;
          {
            Scope build(recorder, "apps.build");
            app = hs::serve::make_named_app(request.app, platform, false);
          }
          if (request.op == "match") {
            Scope match(recorder, "analyzer.match");
            hs::analyzer::Matchmaker{}.match(app->descriptor());
          } else if (request.op == "explain") {
            hs::strategies::StrategyOptions options;
            options.sync_between_kernels = request.sync;
            replay_glinda(recorder, *app, options);
          }
          Scope answer(recorder, "serve.answer");
          return hs::serve::answer(request);
        });
        if (lookup.joined_flight) joins.fetch_add(1);
        span.set_a(lookup.disk_hit ? 2 : lookup.hit ? 1 : 0);
        response.output = *lookup.value;
        response.cache_hit = lookup.hit || lookup.disk_hit;
      }
      std::string text;
      {
        Scope span(recorder, "serve.encode");
        {
          Scope inner(recorder, "common.json_dump");
          text = response.to_json().dump();
          inner.set_a(static_cast<std::int64_t>(text.size()));
        }
        text.push_back('\n');
        span.set_a(static_cast<std::int64_t>(text.size()));
      }
      Scope span(recorder, "serve.write");
      hs::serve::write_all(writers[t], text);
    }
  };
  std::mutex error_mutex;
  std::string error;
  const auto worker = [&](unsigned t) {
    try {
      replay_worker(t);
    } catch (const std::exception& failure) {
      std::lock_guard<std::mutex> lock(error_mutex);
      error = failure.what();
    }
  };
  const double start = now_s();
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kConnections; ++t) threads.emplace_back(worker, t);
  for (std::thread& thread : threads) thread.join();
  ReplayStats stats;
  stats.seconds = now_s() - start;
  for (int fd : writers) ::close(fd);
  drain.join();
  stats.joins = joins.load();
  stats.counters = cache.counters();
  stats.error = error;
  return stats;
}

}  // namespace

Result run_serve_workload(const Options& options) {
  Result result;
  ::signal(SIGPIPE, SIG_IGN);
  // Wake the generator on time: the default 50 us timer slack would add
  // jitter to every scheduled send.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  fs::create_directories(options.work_dir);
  const std::vector<QueryRequest> keys = serve_keys(options.seed);
  std::vector<std::string> frames;
  for (const QueryRequest& key : keys) frames.push_back(key.to_json().dump() + "\n");

  // Input preparation (not timed): reference answers for the whole key
  // population, computed in process. The output check compares every
  // served answer with them; analyze keys also get their simulated event
  // count, which the daemon's computes of them add to sim_events_per_s.
  std::vector<std::string> reference(keys.size());
  std::vector<double> events_of(keys.size(), 0.0);
  {
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::string error;
    const auto work = [&] {
      try {
        for (std::size_t k; (k = next.fetch_add(1)) < keys.size();) {
          const QueryRequest& request = keys[k];
          reference[k] = hs::serve::answer(request);
          if (request.op != "analyze") continue;
          auto app = hs::serve::make_named_app(
              request.app, hs::hw::platform_by_name(request.platform), false,
              true);
          hs::strategies::StrategyOptions strategy_options;
          strategy_options.sync_between_kernels = request.sync;
          if (request.tasks > 0) strategy_options.task_count = request.tasks;
          hs::strategies::StrategyRunner runner(*app, strategy_options);
          events_of[k] = static_cast<double>(
              runner.run_matched().result.report.sim_events);
        }
      } catch (const std::exception& failure) {
        std::lock_guard<std::mutex> lock(error_mutex);
        error = failure.what();
      }
    };
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kJobs; ++t) threads.emplace_back(work);
    for (std::thread& thread : threads) thread.join();
    if (!error.empty())
      throw hs::StateError("reference answer failed: " + error);
  }

  // The seeded part of the key population the daemon's store starts with:
  // the same share of every (op, app)'s platform/sync variants, so the
  // mix of answers the daemon must compute is alike for every seed.
  const std::string template_dir = options.work_dir + "/serve-template";
  fs::remove_all(template_dir);
  std::size_t prefilled = 0;
  {
    const hs::sweep::ResultCache store(template_dir);
    std::map<std::string, std::vector<std::size_t>> variants;
    for (std::size_t k = 0; k < keys.size(); ++k)
      variants[keys[k].op + "/" + keys[k].app].push_back(k);
    Rng pick = stream_rng(options.seed, 300);
    for (auto& [name, members] : variants) {
      pick.shuffle(members);
      const auto share = static_cast<std::size_t>(std::lround(
          kPrefilledShare * static_cast<double>(members.size())));
      for (std::size_t i = 0; i < share; ++i) {
        store.store(keys[members[i]].cache_key(), reference[members[i]]);
        ++prefilled;
      }
    }
  }

  // Several rounds of set-up and first touches, each on a fresh daemon
  // over a fresh copy of the initial store. Set-up is daemon start,
  // connect, and a closed-loop warm-up (one match per served app, the same
  // for every seed). Then every key once, as fast as the daemon answers
  // (kFirstTouchDepth unanswered per connection, so both workers stay busy
  // to the end): answers mix memory hits, disk hits and computes, and how
  // fast the daemon gets through them gives scenarios_per_s and
  // sim_events_per_s. The last daemon, now warm, is the one the nominal
  // phase and the ladder measure, so no first-touch compute decides their
  // tails.
  std::vector<std::size_t> warmup;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    if (keys[k].op == "match" && keys[k].platform == "reference" &&
        !keys[k].sync && keys[k].tasks == 0)
      warmup.push_back(k);
  }
  FramePhase first_touch;
  for (std::uint32_t k = 0; k < keys.size(); ++k) {
    first_touch.keys.push_back(k);
    first_touch.at.push_back(0.0);
  }
  SpanRecorder recorder;
  SpanRecorder* traced = options.trace ? &recorder : nullptr;
  std::map<std::uint32_t, std::set<std::string>> answers;
  std::vector<double> setup_s, answer_rates, event_rates;
  std::int64_t computed_analyze = 0;
  bool connection_lost = false;
  std::unique_ptr<Daemon> daemon;
  std::vector<Connection> connections;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::string store = options.work_dir + "/serve-store-" +
                              std::to_string(rep);
    fs::remove_all(store);
    fs::copy(template_dir, store, fs::copy_options::recursive);
    settle_disk(options.work_dir);
    const double start = now_s();
    daemon = std::make_unique<Daemon>(options, store);
    connections.assign(kConnections, Connection{});
    for (Connection& connection : connections)
      connection.fd = connect_loopback(daemon->port());
    for (std::size_t i = 0; i < warmup.size(); ++i)
      ask(connections[i % kConnections].fd, frames[warmup[i]]);
    setup_s.push_back(now_s() - start);

    const PhaseRun run =
        run_phase(connections, first_touch, frames, kFirstTouchDepth);
    const PhaseSummary summary = summarize(run, answers);
    result.attempted += static_cast<std::int64_t>(run.samples.size());
    result.failed += summary.failed;
    connection_lost = connection_lost || run.connection_lost;
    double events = 0.0;
    computed_analyze = 0;
    for (std::size_t i = 0; i < run.samples.size(); ++i) {
      if (!summary.verdicts[i].ok || summary.verdicts[i].cache_hit) continue;
      events += events_of[run.samples[i].key];
      computed_analyze += events_of[run.samples[i].key] > 0.0 ? 1 : 0;
    }
    answer_rates.push_back(summary.throughput);
    event_rates.push_back(summary.window_s > 0.0 ? events / summary.window_s
                                                 : 0.0);
    if (run.unanswered > 0) reconnect(connections, daemon->port());
    if (rep + 1 == kSetupReps) break;
    for (Connection& connection : connections) ::close(connection.fd);
    daemon.reset();
    fs::remove_all(store);
  }

  const FramePhase nominal = frame_phase(options.seed, 1, kNominalRate,
                                         options.seconds * kNominalShare,
                                         keys.size(), kZipfExponent);
  const PhaseRun nominal_run = run_phase(connections, nominal, frames);
  const PhaseSummary nominal_summary = summarize(nominal_run, answers);
  result.attempted += static_cast<std::int64_t>(nominal_run.samples.size());
  result.failed += nominal_summary.failed;
  connection_lost = connection_lost || nominal_run.connection_lost;
  if (nominal_run.unanswered > 0) reconnect(connections, daemon->port());

  // Rate ladder: bisections for the highest rung that meets the latency
  // limit without a growing backlog. Each rung of each search has its own
  // seeded stream; the daemon's capacity moves with the host from second
  // to second, so the searches' median is reported.
  const std::vector<double> ladder = rate_ladder();
  std::vector<double> search_rates;
  hs::json::Value rungs{hs::json::Value::Array{}};
  for (int search = 0; !options.trace && search < kLadderSearches; ++search) {
    int lo = -1, hi = static_cast<int>(ladder.size());
    double found = 0.0;
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      bool pass = false;
      PhaseRun run;
      PhaseSummary summary;
      for (int attempt = 0; attempt < kRungTries && !pass; ++attempt) {
        ::usleep(50'000);
        const FramePhase phase = frame_phase(
            options.seed, 10 + mid + 1000 * attempt + 10'000 * search,
            ladder[mid], kRungSeconds, keys.size(), kZipfExponent);
        run = run_phase(connections, phase, frames);
        summary = summarize(run, answers);
        result.attempted += static_cast<std::int64_t>(run.samples.size());
        result.failed += summary.failed;
        if (run.unanswered > 0) reconnect(connections, daemon->port());
        pass = rung_passes(run, summary);
      }
      hs::json::Value rung;
      rung.set("search", hs::json::Value(search));
      rung.set("rate", hs::json::Value(ladder[mid]));
      rung.set("p99_ms", hs::json::Value(std::isfinite(summary.p99_ms)
                                             ? summary.p99_ms
                                             : -1.0));
      rung.set("p50_ms", hs::json::Value(summary.p50_ms));
      rung.set("lag_p99_ms", hs::json::Value(summary.lag_p99_ms));
      rung.set("throughput", hs::json::Value(summary.throughput));
      rung.set("backlog_end",
               hs::json::Value(static_cast<std::int64_t>(run.backlog_end)));
      rung.set("pass", hs::json::Value(pass));
      rungs.push_back(std::move(rung));
      if (pass) {
        lo = mid;
        found = summary.throughput;
      } else {
        hi = mid;
      }
    }
    search_rates.push_back(found);
  }
  const double max_rate = median(search_rates);

  // Keep-alive connections pin their workers, so release them before the
  // /metrics scrape.
  for (Connection& connection : connections) ::close(connection.fd);
  std::string metrics_text;
  try {
    metrics_text = scrape_metrics(daemon->port());
  } catch (const hs::Error&) {
  }
  const double daemon_rss = peak_rss_mb(daemon->pid());
  daemon.reset();

  // Output check: every ok answer equals the in-process reference.
  for (const auto& [key, outputs] : answers) {
    for (const std::string& output : outputs) {
      if (output != reference[key])
        result.mismatch("served " + keys[key].op + " " + keys[key].app + "@" +
                        keys[key].platform + " differs from serve::answer");
    }
  }
  if (connection_lost) result.mismatch("the daemon dropped a connection");

  // The matchmaker's accuracy on the paper-app groups the daemon serves,
  // computed in process after the window: served answers hold only the
  // matched strategy's run, and regret needs every strategy's.
  const std::vector<hs::sweep::Scenario> cells = served_cells(keys);
  hs::sweep::SweepOptions engine_options;
  engine_options.jobs = kJobs;
  const hs::sweep::SweepRun swept =
      hs::sweep::SweepEngine(engine_options).run(cells);
  std::int64_t groups = 0, glinda_cells = 0;
  const double regret = match_regret_pct({swept.outcomes}, nullptr, groups);
  const double glinda =
      glinda_error_pct(cells, {swept.outcomes}, result, glinda_cells);

  std::int64_t nominal_ok = 0;
  for (const Verdict& verdict : nominal_summary.verdicts)
    nominal_ok += verdict.ok ? 1 : 0;
  result.add("scenarios_per_s", median(answer_rates), "1/s");
  result.add("sim_events_per_s", median(event_rates), "1/s");
  result.add("max_rate_rps", max_rate, "1/s");
  result.add("setup_s", median(setup_s), "s");
  result.add("peak_rss_mb", daemon_rss, "MB");
  result.add("ok_frac",
             1.0 - static_cast<double>(result.failed) /
                       static_cast<double>(std::max<std::int64_t>(
                           1, result.attempted)),
             "ratio");
  result.add("match_regret_pct", regret, "%");
  result.add("glinda_error_pct", glinda, "%");

  hs::json::Value& settings = result.settings;
  settings.set("connections", hs::json::Value(static_cast<int>(kConnections)));
  settings.set("workers", hs::json::Value(static_cast<int>(kWorkers)));
  settings.set("jobs", hs::json::Value(static_cast<int>(kJobs)));
  settings.set("nominal_rate", hs::json::Value(kNominalRate));
  settings.set("latency_limit_ms", hs::json::Value(kLatencyLimitMs));
  settings.set("nominal_share", hs::json::Value(kNominalShare));
  settings.set("rung_seconds", hs::json::Value(kRungSeconds));
  settings.set("rung_tries", hs::json::Value(kRungTries));
  settings.set("ladder_searches", hs::json::Value(kLadderSearches));
  hs::json::Value ladder_json{hs::json::Value::Array{}};
  for (double rate : ladder) ladder_json.push_back(hs::json::Value(rate));
  settings.set("rate_ladder", std::move(ladder_json));
  settings.set("zipf_exponent", hs::json::Value(kZipfExponent));
  settings.set("keys", hs::json::Value(static_cast<int>(keys.size())));
  settings.set("prefilled_share", hs::json::Value(kPrefilledShare));
  settings.set("setup_reps", hs::json::Value(kSetupReps));
  settings.set("first_touch_depth",
               hs::json::Value(static_cast<int>(kFirstTouchDepth)));
  settings.set("warmup_keys", hs::json::Value(static_cast<int>(warmup.size())));
  hs::json::Value& detail = result.detail;
  detail.set("nominal_requests", hs::json::Value(static_cast<std::int64_t>(
                                     nominal_run.samples.size())));
  detail.set("nominal_ok", hs::json::Value(nominal_ok));
  // -1: not finite (a request failed or went unanswered).
  const double nominal_p50_ms =
      std::isfinite(nominal_summary.p50_ms) ? nominal_summary.p50_ms : -1.0;
  const double nominal_p99_ms =
      std::isfinite(nominal_summary.p99_ms) ? nominal_summary.p99_ms : -1.0;
  detail.set("nominal_p50_ms", hs::json::Value(nominal_p50_ms));
  detail.set("nominal_p99_ms", hs::json::Value(nominal_p99_ms));
  hs::json::Value rates{hs::json::Value::Array{}};
  for (double rate : answer_rates) rates.push_back(hs::json::Value(rate));
  detail.set("first_touch_answers_per_s", std::move(rates));
  detail.set("first_touch_computed_analyze",
             hs::json::Value(computed_analyze));
  detail.set("rungs", std::move(rungs));
  hs::json::Value setups{hs::json::Value::Array{}};
  for (double setup : setup_s) setups.push_back(hs::json::Value(setup));
  detail.set("setup_s", std::move(setups));
  detail.set("checked_keys",
             hs::json::Value(static_cast<std::int64_t>(answers.size())));
  detail.set("prefilled_keys",
             hs::json::Value(static_cast<std::int64_t>(prefilled)));
  detail.set("regret_groups", hs::json::Value(groups));
  detail.set("glinda_cells", hs::json::Value(glinda_cells));

  if (traced != nullptr) {
    // Generator spans of the nominal phase: one per request, send to
    // response. A connection's worker answers its frames in order, so a
    // request waits from its send until the previous response on its
    // connection arrived: that is its queue wait, seen from the generator
    // (the daemon's own queue-wait histogram times connection pick-ups,
    // not requests).
    std::vector<double> lags, hit_ms, queue_ms;
    std::vector<double> previous(kConnections, -1.0);
    std::uint64_t unit = 0;
    for (std::size_t i = 0; i < nominal_run.samples.size(); ++i) {
      const Sample& sample = nominal_run.samples[i];
      lags.push_back((sample.sent - sample.due) * 1e3);
      ++unit;
      double& ahead = previous[sample.connection];
      queue_ms.push_back(std::max(0.0, ahead - sample.sent) * 1e3);
      if (sample.received < 0.0) continue;
      ahead = sample.received;
      recorder.add("loadgen.request", unit, std::llround(sample.sent * 1e9),
                   std::llround(sample.received * 1e9));
      if (nominal_summary.verdicts[i].ok && nominal_summary.verdicts[i].cache_hit)
        hit_ms.push_back((sample.received - sample.sent) * 1e3);
    }
    result.add("loadgen.sent", static_cast<double>(unit), "count");
    result.add("loadgen.lag_ms_p99", quantile(lags, 0.99), "ms");
    result.add("loadgen.backlog_max",
               static_cast<double>(nominal_run.backlog_max), "count");
    result.add("loadgen.latency_p50_ms", nominal_p50_ms, "ms");
    result.add("loadgen.latency_p99_ms", nominal_p99_ms, "ms");
    result.add("serve.queue_wait_ms_p99", quantile(queue_ms, 0.99), "ms");
    result.add("serve.overloads",
               prometheus_sum(metrics_text, "serve_responses_total",
                              "status=\"overload\""),
               "count");

    // The nominal phase's frames through the layers, over the initial store
    // (a replay never writes to it): first touches of a key compute or load
    // it, repeats hit memory. A first, untimed replay warms the process;
    // then one without spans and one with give the tracing overhead.
    std::vector<std::string> replay;
    for (std::uint32_t key : nominal.keys) replay.push_back(frames[key]);
    const ReplayStats warm = replay_frames(nullptr, replay, template_dir, 0);
    const ReplayStats plain = replay_frames(nullptr, replay, template_dir, 0);
    const ReplayStats with_spans =
        replay_frames(traced, replay, template_dir, 1'000'000);
    for (const ReplayStats* stats : {&warm, &plain, &with_spans}) {
      if (!stats->error.empty())
        result.mismatch("in-process replay failed: " + stats->error);
    }

    std::map<std::string, SpanSummary> spans;
    finish_trace(options, recorder, result, spans);
    const auto p50 = [&spans](const char* name) {
      return median(spans[name].us);
    };
    std::vector<double> hit_lookup;
    const SpanSummary& lookup = spans["serve.cache_lookup"];
    for (std::size_t i = 0; i < lookup.a.size(); ++i) {
      if (lookup.a[i] == 1.0) hit_lookup.push_back(lookup.us[i]);
    }
    const double lookups = static_cast<double>(with_spans.counters.hits +
                                               with_spans.counters.misses);
    result.add("trace.overhead_pct",
               100.0 * (with_spans.seconds / plain.seconds - 1.0), "%");
    result.add("apps.build_calls",
               static_cast<double>(spans["apps.build"].calls), "count");
    result.add("apps.build_us_p50", p50("apps.build"), "us");
    result.add("analyzer.match_calls",
               static_cast<double>(spans["analyzer.match"].calls), "count");
    result.add("analyzer.match_us_p50", p50("analyzer.match"), "us");
    result.add("glinda.probe_calls",
               static_cast<double>(spans["glinda.probe"].calls), "count");
    result.add("glinda.probe_us_p50", p50("glinda.probe"), "us");
    result.add("glinda.solve_calls",
               static_cast<double>(spans["glinda.solve"].calls), "count");
    result.add("glinda.solve_us_p50", p50("glinda.solve"), "us");
    result.add("serve.parse_us_p50", p50("serve.parse"), "us");
    result.add("serve.answer_us_p50", p50("serve.answer"), "us");
    result.add("serve.cache_lookup_us_p50", p50("serve.cache_lookup"), "us");
    result.add("serve.cache_hit_ratio",
               lookups > 0.0 ? static_cast<double>(with_spans.counters.hits) /
                                   lookups
                             : 0.0,
               "ratio");
    result.add("serve.disk_hit_ratio",
               lookups > 0.0
                   ? static_cast<double>(with_spans.counters.disk_hits) /
                         lookups
                   : 0.0,
               "ratio");
    result.add("serve.flight_joins", static_cast<double>(with_spans.joins),
               "count");
    result.add("serve.encode_us_p50", p50("serve.encode"), "us");
    result.add("serve.write_us_p50", p50("serve.write"), "us");
    result.add("serve.response_bytes_p50", median(spans["serve.encode"].a),
               "bytes");
    const double hit_path = p50("serve.parse") + median(hit_lookup) +
                            p50("serve.encode") + p50("serve.write");
    result.add("serve.hit_share_pct",
               hit_ms.empty() ? 0.0 : 100.0 * (hit_path / 1e3) / median(hit_ms),
               "%");
    const SpanSummary& parse = spans["common.json_parse"];
    const SpanSummary& dump = spans["common.json_dump"];
    result.add("common.json_parse_mb_per_s",
               parse.total_ns > 0.0
                   ? parse.a_total / 1e6 / (parse.total_ns / 1e9)
                   : 0.0,
               "MB/s");
    result.add("common.json_dump_mb_per_s",
               dump.total_ns > 0.0 ? dump.a_total / 1e6 / (dump.total_ns / 1e9)
                                   : 0.0,
               "MB/s");
  }
  for (int rep = 0; rep < kSetupReps; ++rep)
    fs::remove_all(options.work_dir + "/serve-store-" + std::to_string(rep));
  fs::remove_all(template_dir);
  return result;
}

}  // namespace perfbench
