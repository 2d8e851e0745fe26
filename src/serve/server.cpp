#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/log.hpp"
#include "obs/metric_names.hpp"
#include "obs/phase_profiler.hpp"
#include "obs/validate.hpp"
#include "serve/service.hpp"

namespace hetsched::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Bounded decision audit: old entries rotate out, the log never grows
/// without limit in a long-running daemon.
constexpr std::size_t kMaxAuditEntries = 4096;

/// Shard count of the in-memory scenario cache.
constexpr std::size_t kCacheShards = 8;

void set_socket_timeouts(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  // Writes get a generous bound so a stalled reader cannot wedge a worker.
  timeval send_tv{};
  send_tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_tv, sizeof(send_tv));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

}  // namespace

Server::Server(ServeOptions options)
    : options_(std::move(options)), traces_(options_.trace_capacity) {
  HS_REQUIRE(options_.workers > 0, "serve needs at least one worker");
  if (!options_.cache_dir.empty())
    disk_ = std::make_unique<sweep::ResultCache>(options_.cache_dir);
  cache_ = std::make_unique<ShardedScenarioCache>(kCacheShards, disk_.get());
  queue_ = std::make_unique<AdmissionQueue>(options_.max_queue);
  metrics_.enable();
  metrics_.histogram_bounds(obs::kMetricServeRequestLatencyMs,
                            obs::Histogram::default_bounds());
  metrics_.histogram_bounds(obs::kMetricServeQueueWaitMs,
                            obs::Histogram::default_bounds());
}

Server::~Server() {
  request_shutdown();
  wait();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void Server::start() {
  HS_REQUIRE(!started_, "server already started");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  HS_REQUIRE(listen_fd_ >= 0,
             "socket() failed: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  HS_REQUIRE(::inet_pton(AF_INET, options_.host.c_str(),
                         &address.sin_addr) == 1,
             "invalid bind address '" << options_.host << "'");
  HS_REQUIRE(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
                    sizeof(address)) == 0,
             "cannot bind " << options_.host << ":" << options_.port << ": "
                            << std::strerror(errno));
  HS_REQUIRE(::listen(listen_fd_, 128) == 0,
             "listen() failed: " << std::strerror(errno));

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  HS_REQUIRE(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                           &bound_len) == 0,
             "getsockname() failed: " << std::strerror(errno));
  port_ = ntohs(bound.sin_port);

  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    started_ = true;
  }
  workers_.reserve(options_.workers);
  for (unsigned i = 0; i < options_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  acceptor_ = std::thread([this] { acceptor_loop(); });
  obs::Log(log::Level::kInfo, "serve.listening")
      .field("host", options_.host)
      .field("port", port_)
      .field("workers", static_cast<std::int64_t>(options_.workers))
      .field("max_queue", options_.max_queue)
      .field("cache_shards", cache_->shard_count())
      .field("store", disk_ ? options_.cache_dir : std::string())
      .emit();
}

void Server::request_shutdown() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  // Wake the acceptor out of accept(2); the fd itself is closed after the
  // join so the port stays reserved until the drain finishes.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  queue_->close();
  lifecycle_cv_.notify_all();
}

bool Server::wait_for_shutdown_request(int timeout_ms) {
  std::unique_lock<std::mutex> lock(lifecycle_mutex_);
  lifecycle_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [this] {
    return stopping_.load(std::memory_order_acquire);
  });
  return stopping_.load(std::memory_order_acquire);
}

void Server::wait() {
  {
    std::unique_lock<std::mutex> lock(lifecycle_mutex_);
    lifecycle_cv_.wait(lock, [this] {
      return stopping_.load(std::memory_order_acquire);
    });
    if (!started_ || stopped_) return;
    // First caller past this point performs the teardown; later callers
    // block on `stopped_` below.
    if (finalizing_in_progress_) {
      lifecycle_cv_.wait(lock, [this] { return stopped_; });
      return;
    }
    finalizing_in_progress_ = true;
  }

  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& worker : workers_) worker.join();

  const std::size_t flushed = cache_->flush();
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    if (flushed > 0)
      metrics_.counter_add(obs::kMetricServeCacheFlushed,
                           static_cast<std::int64_t>(flushed));
  }
  final_snapshot_ = metrics_prometheus();
  obs::Log(log::Level::kInfo, "serve.drained")
      .field("cache_entries", cache_->entries())
      .field("flushed", flushed)
      .field("traces_published", traces_.published())
      .emit();

  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    stopped_ = true;
  }
  lifecycle_cv_.notify_all();
}

void Server::acceptor_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EINVAL/EBADF after shutdown(listen_fd_): the drain has begun.
      return;
    }
    set_socket_timeouts(fd, options_.idle_timeout_ms);

    if (stopping_.load(std::memory_order_acquire)) {
      QueryResponse response;
      response.status = ResponseStatus::kShuttingDown;
      response.error = "daemon is shutting down";
      write_frame(fd, response.to_json());
      record_response(nullptr, ResponseStatus::kShuttingDown, false, 0.0);
      ::close(fd);
      continue;
    }
    AdmittedConnection connection;
    connection.fd = fd;
    connection.trace_id = obs::mint_trace_id();
    connection.accepted_at = Clock::now();
    if (!queue_->try_push(std::move(connection))) {
      // Admission control: bounded queue, never unbounded buffering. The
      // client gets an explicit overload answer plus a backoff hint fed by
      // the queue waits workers actually observed.
      QueryResponse response;
      response.status = ResponseStatus::kOverload;
      response.error = "request queue full";
      response.retry_after_ms = overload_retry_hint_ms();
      write_frame(fd, response.to_json());
      record_response(nullptr, ResponseStatus::kOverload, false, 0.0);
      ::close(fd);
      continue;
    }
    set_queue_depth_gauge();
  }
}

void Server::worker_loop() {
  for (;;) {
    std::optional<AdmittedConnection> connection = queue_->pop();
    if (!connection) return;  // admission closed and drained
    double queue_wait_ms = 0.0;
    {
      // The admission phase covers only the bookkeeping after pickup. The
      // blocking pop above is idle/queue time, not admission work — billing
      // it here once made `admission` dominate the phase profile of an idle
      // daemon. The request's real queue wait is still recorded in full,
      // via the queue-wait histogram and EMA inside note_queue_wait.
      const obs::ScopedPhase phase(obs::kPhaseAdmission);
      set_queue_depth_gauge();
      // Worker pickup is where the admission wait becomes observable: the
      // span between accept and this instant is pure queueing.
      queue_wait_ms = elapsed_ms(connection->accepted_at);
      note_queue_wait(queue_wait_ms, connection->trace_id);
    }
    serve_connection(*connection, queue_wait_ms);
  }
}

void Server::serve_connection(const AdmittedConnection& connection,
                              double queue_wait_ms) {
  const int fd = connection.fd;
  FrameReader reader(fd);
  bool first = true;
  for (;;) {
    std::string frame;
    // During shutdown the read gives up at the next idle timeout, which is
    // what drains workers blocked on keep-alive connections: every frame
    // already in flight is answered, then the connection closes.
    const FrameReader::Result result = reader.read(frame, &stopping_);
    if (result == FrameReader::Result::kOverflow) {
      QueryResponse response;
      response.status = ResponseStatus::kError;
      response.error = "frame exceeds " + std::to_string(kMaxFrameBytes) +
                       " bytes";
      write_frame(fd, response.to_json());
      record_response(nullptr, ResponseStatus::kError, false, 0.0);
      break;
    }
    if (result != FrameReader::Result::kFrame) break;
    if (frame.empty()) continue;  // stray blank line between frames
    if (frame.rfind("GET ", 0) == 0) {
      handle_http(fd, frame, reader);
      break;
    }
    FrameTraceInfo info;
    info.first = first;
    if (first) {
      // The connection's first frame inherits the accept-time context: its
      // tree starts at accept and contains the real queue wait.
      info.trace_id = connection.trace_id;
      info.pre_ms = elapsed_ms(connection.accepted_at);
      info.queue_wait_ms = queue_wait_ms;
      first = false;
    } else {
      // Keep-alive frames start fresh at frame read; their queue span is
      // zero-length (the connection was already being served).
      info.trace_id = obs::mint_trace_id();
    }
    if (!handle_query_frame(fd, frame, info)) break;
  }
  ::close(fd);
}

bool Server::handle_query_frame(int fd, const std::string& frame,
                                const FrameTraceInfo& info) {
  const Clock::time_point start = Clock::now();
  obs::RequestTraceBuilder builder(info.trace_id,
                                   info.first ? "" : "keep-alive",
                                   info.pre_ms);
  builder.add_span(obs::kStageQueue, 0.0, info.queue_wait_ms, 0,
                   info.first ? "" : "keep-alive");
  const std::uint64_t handle_span = builder.open(obs::kStageHandle);

  QueryRequest request;
  const std::uint64_t parse_span =
      builder.open(obs::kStageParse, handle_span);
  try {
    request = QueryRequest::from_json(json::Value::parse(frame));
  } catch (const Error& error) {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    metrics_.counter_add(obs::kMetricServeBadFrames);
    QueryResponse response;
    response.status = ResponseStatus::kError;
    response.error = error.what();
    response.trace_id = builder.trace_id();
    write_frame(fd, response.to_json());
    responses_error_.fetch_add(1, std::memory_order_relaxed);
    return false;  // a peer speaking garbage gets disconnected
  }
  builder.close(parse_span);
  builder.set_request(request.op, request.app);

  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    metrics_.counter_add(
        obs::metric_key(obs::kMetricServeRequests, {{"op", request.op}}));
  }

  if (request.op == "shutdown") {
    // Flip the shutdown state BEFORE acking, so a client that has read the
    // ack frame can rely on the drain having already begun.
    request_shutdown();
    QueryResponse response;
    response.output = "shutting down\n";
    response.trace_id = builder.trace_id();
    const bool sent = write_frame(fd, response.to_json());
    record_response(&request, ResponseStatus::kOk, false, elapsed_ms(start),
                    builder.trace_id());
    audit(request, ResponseStatus::kOk, false, builder.trace_id());
    return sent && false;
  }

  if (request.op == "trace-dump") {
    // Administrative, never cached, and not published as a tree itself
    // (dumping traces should not displace the traces being dumped).
    QueryResponse response = respond_trace_dump(request);
    const bool sent = write_frame(fd, response.to_json());
    record_response(nullptr, response.status, false, 0.0);
    audit(request, response.status, false, builder.trace_id());
    return sent;
  }

  builder.close(handle_span);
  const QueryResponse response = respond(request, builder);
  const double latency_ms = elapsed_ms(start);
  record_response(&request, response.status, response.cache_hit, latency_ms,
                  builder.trace_id());
  audit(request, response.status, response.cache_hit, builder.trace_id());

  const std::uint64_t write_span = builder.open(obs::kStageWrite);
  bool sent;
  {
    obs::ScopedPhase phase(obs::kPhaseSerialize);
    sent = write_frame(fd, response.to_json());
  }
  builder.close(write_span);
  builder.set_outcome(response_status_name(response.status),
                      response.cache_hit);
  publish_trace(builder.finish());
  return sent;
}

QueryResponse Server::respond(const QueryRequest& request,
                              obs::RequestTraceBuilder& builder) {
  QueryResponse response;
  response.trace_id = builder.trace_id();
  const std::string key = request.cache_key();
  const std::uint64_t cache_span = builder.open(
      obs::kStageCache, 0, "shard=" + std::to_string(cache_->shard_index(key)));
  const double lookup_start_ms = builder.now_ms();
  try {
    obs::ScopedPhase cache_phase(obs::kPhaseCache);
    const ShardedScenarioCache::Lookup lookup = cache_->get_or_compute(
        key,
        [&request, &builder, cache_span] {
          // Owner path: this thread computes the answer; the compute span
          // (and the run's chunk spans) belong to this request's tree.
          obs::ScopedPhase compute_phase(obs::kPhaseCompute);
          const std::uint64_t compute_span =
              builder.open(obs::kStageCompute, cache_span);
          AnswerTrace answer_trace;
          std::string output = answer(request, &answer_trace);
          builder.close(compute_span);
          builder.set_chunk_spans(std::move(answer_trace.chunk_spans));
          return output;
        },
        builder.trace_id());
    response.output = *lookup.value;
    response.cache_hit = lookup.hit || lookup.disk_hit;
    // Hit-like outcomes get a span covering the whole lookup: for a
    // flight join that is the real wall-time wait on the leader's compute.
    if (lookup.joined_flight) {
      builder.add_span(obs::kStageFlightJoin, lookup_start_ms,
                       builder.now_ms(), cache_span,
                       "leader=" + (lookup.leader_trace_id.empty()
                                        ? std::string("unknown")
                                        : lookup.leader_trace_id));
    } else if (lookup.disk_hit) {
      builder.add_span(obs::kStageDiskLoad, lookup_start_ms,
                       builder.now_ms(), cache_span);
    } else if (lookup.hit) {
      builder.add_span(obs::kStageCacheHit, lookup_start_ms,
                       builder.now_ms(), cache_span);
    }
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    metrics_.counter_add(response.cache_hit ? obs::kMetricServeCacheHits
                                            : obs::kMetricServeCacheMisses);
    if (lookup.disk_hit) metrics_.counter_add(obs::kMetricServeCacheDiskHits);
  } catch (const Error& error) {
    response.status = ResponseStatus::kError;
    response.error = error.what();
  }
  builder.close(cache_span);
  return response;
}

QueryResponse Server::respond_trace_dump(const QueryRequest& request) {
  QueryResponse response;
  const std::optional<obs::RequestTree> tree =
      request.trace.empty() ? traces_.latest() : traces_.find(request.trace);
  if (!tree) {
    response.status = ResponseStatus::kError;
    response.error = request.trace.empty()
                         ? "no request traces recorded yet"
                         : "trace '" + request.trace + "' not retained";
    return response;
  }
  response.output = tree->to_json().dump() + "\n";
  response.trace_id = tree->trace_id;
  return response;
}

void Server::record_response(const QueryRequest* request,
                             ResponseStatus status, bool cache_hit,
                             double latency_ms, std::string_view trace_id) {
  (void)cache_hit;
  switch (status) {
    case ResponseStatus::kOk:
      responses_ok_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ResponseStatus::kError:
      responses_error_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ResponseStatus::kOverload:
      responses_overload_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ResponseStatus::kShuttingDown:
      responses_shutting_down_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  metrics_.counter_add(obs::metric_key(
      obs::kMetricServeResponses,
      {{"status", response_status_name(status)}}));
  if (request != nullptr)
    // The trace id rides along as the bucket's exemplar, linking the
    // /metrics latency distribution to a concrete dumpable request tree.
    metrics_.observe(obs::kMetricServeRequestLatencyMs, latency_ms, 1.0,
                     trace_id);
}

void Server::audit(const QueryRequest& request, ResponseStatus status,
                   bool cache_hit, const std::string& trace_id) {
  obs::Log(log::Level::kInfo, "serve.request")
      .field("trace_id", trace_id)
      .field("op", request.op)
      .field("app", request.app)
      .field("status", response_status_name(status))
      .field("source", cache_hit ? "cache" : "computed")
      .emit();
  std::lock_guard<std::mutex> lock(audit_mutex_);
  ServeAuditEntry entry;
  entry.sequence = ++audit_sequence_;
  entry.trace_id = trace_id;
  entry.op = request.op;
  entry.app = request.app;
  entry.status = response_status_name(status);
  entry.cache_hit = cache_hit;
  if (audit_log_.size() >= kMaxAuditEntries)
    audit_log_.erase(audit_log_.begin());
  audit_log_.push_back(std::move(entry));
}

void Server::publish_trace(obs::RequestTree tree) {
  const std::vector<std::string> problems = obs::validate_request_tree(tree);
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    metrics_.counter_add(obs::kMetricServeTracesPublished);
    if (!problems.empty())
      metrics_.counter_add(obs::kMetricServeTraceInvalid);
  }
  if (!problems.empty()) {
    obs::Log(log::Level::kWarn, "serve.trace_invalid")
        .field("trace_id", tree.trace_id)
        .field("problems", problems.size())
        .field("first", problems.front())
        .emit();
  }
  // Invalid trees are retained too: a tree that fails its own validator is
  // exactly the one worth dumping.
  traces_.publish(std::move(tree));
}

double Server::overload_retry_hint_ms() {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  // Scale the observed per-slot wait to the backlog a newcomer would sit
  // behind; the configured hint is the floor so an idle daemon's answer is
  // stable (tests pin it) and clients never get told "retry immediately"
  // while the queue is provably full.
  const double backlog =
      static_cast<double>(queue_->depth() + 1);
  return std::max(options_.retry_after_ms, ema_queue_wait_ms_ * backlog);
}

void Server::note_queue_wait(double wait_ms, const std::string& trace_id) {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  metrics_.observe(obs::kMetricServeQueueWaitMs, wait_ms, 1.0, trace_id);
  constexpr double kAlpha = 0.2;
  ema_queue_wait_ms_ = ema_queue_wait_ms_ == 0.0
                           ? wait_ms
                           : (1.0 - kAlpha) * ema_queue_wait_ms_ +
                                 kAlpha * wait_ms;
}

void Server::handle_http(int fd, const std::string& request_line,
                         FrameReader& reader) {
  // Drain the header block; a scrape's headers are small and uninteresting.
  std::string header;
  while (reader.read(header, &stopping_) == FrameReader::Result::kFrame &&
         !header.empty()) {
  }
  std::istringstream line(request_line);
  std::string method, path;
  line >> method >> path;
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    metrics_.counter_add(
        obs::metric_key(obs::kMetricServeHttpRequests, {{"path", path}}));
  }
  std::string status = "200 OK";
  std::string body;
  if (path == "/metrics") {
    body = metrics_prometheus();
  } else if (path == "/healthz") {
    body = shutdown_requested() ? "draining\n" : "ok\n";
  } else {
    status = "404 Not Found";
    body = "not found (try /metrics or /healthz)\n";
  }
  std::ostringstream response;
  response << "HTTP/1.1 " << status << "\r\n"
           << "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
           << "Content-Length: " << body.size() << "\r\n"
           << "Connection: close\r\n\r\n"
           << body;
  write_all(fd, response.str());
}

void Server::set_queue_depth_gauge() {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  metrics_.gauge_set(obs::kMetricServeQueueDepth,
                     static_cast<double>(queue_->depth()));
}

std::string Server::metrics_prometheus() const {
  const ShardCacheCounters cache_counters = cache_->counters();
  const std::size_t entries = cache_->entries();
  const std::map<std::string, obs::PhaseStats> phases =
      obs::phase_profiler().snapshot();
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  // Mirror component-owned state into gauges at scrape time; the request
  // counters above are maintained inline on the serving path.
  auto& metrics = const_cast<obs::MetricsRegistry&>(metrics_);
  metrics.gauge_set(obs::kMetricServeCacheEntries,
                    static_cast<double>(entries));
  metrics.gauge_set(obs::kMetricServeCacheShards,
                    static_cast<double>(cache_->shard_count()));
  metrics.gauge_set(obs::kMetricServeCacheShardHits,
                    static_cast<double>(cache_counters.hits));
  metrics.gauge_set(obs::kMetricServeCacheShardMisses,
                    static_cast<double>(cache_counters.misses));
  metrics.gauge_set(obs::kMetricServeQueueDepth,
                    static_cast<double>(queue_->depth()));
  metrics.gauge_set(obs::kMetricServeQueueCapacity,
                    static_cast<double>(queue_->capacity()));
  metrics.gauge_set(obs::kMetricServeQueueMaxDepth,
                    static_cast<double>(queue_->max_depth_seen()));
  metrics.gauge_set(obs::kMetricServeQueueRejected,
                    static_cast<double>(queue_->rejected()));
  metrics.gauge_set(obs::kMetricServeWorkers,
                    static_cast<double>(options_.workers));
  // Phase-profiler snapshot: wall-time attribution per stage, as labeled
  // gauge families so one scrape carries the whole self-profile.
  for (const auto& [stage, stats] : phases) {
    metrics.gauge_set(
        obs::metric_key(obs::kMetricPhaseTotalMs, {{"stage", stage}}),
        stats.total_ms);
    metrics.gauge_set(
        obs::metric_key(obs::kMetricPhaseSelfMs, {{"stage", stage}}),
        stats.self_ms);
    metrics.gauge_set(
        obs::metric_key(obs::kMetricPhaseMaxMs, {{"stage", stage}}),
        stats.max_ms);
    metrics.gauge_set(
        obs::metric_key(obs::kMetricPhaseCalls, {{"stage", stage}}),
        static_cast<double>(stats.calls));
  }
  return metrics_.to_prometheus();
}

std::vector<ServeAuditEntry> Server::audit_log() const {
  std::lock_guard<std::mutex> lock(audit_mutex_);
  return audit_log_;
}

std::int64_t Server::responses_sent(ResponseStatus status) const {
  switch (status) {
    case ResponseStatus::kOk:
      return responses_ok_.load(std::memory_order_relaxed);
    case ResponseStatus::kError:
      return responses_error_.load(std::memory_order_relaxed);
    case ResponseStatus::kOverload:
      return responses_overload_.load(std::memory_order_relaxed);
    case ResponseStatus::kShuttingDown:
      return responses_shutting_down_.load(std::memory_order_relaxed);
  }
  return 0;
}

}  // namespace hetsched::serve
