#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/request_trace.hpp"
#include "serve/admission.hpp"
#include "serve/protocol.hpp"
#include "serve/shard_cache.hpp"
#include "sweep/cache.hpp"

/// The matchmaker daemon (`hetsched_cli serve`).
///
/// One acceptor thread listens on a loopback TCP port and admits
/// connections into a bounded AdmissionQueue; a worker pool drains the
/// queue and serves each connection's newline-delimited JSON frames
/// (protocol.hpp). Answers resolve through a ShardedScenarioCache —
/// single-flight per key, fronting an optional on-disk sweep::ResultCache
/// — so concurrent identical queries collapse into one computation and a
/// restarted daemon starts warm.
///
/// A connection whose first line is an HTTP GET is served as a Prometheus
/// scrape instead: GET /metrics returns the registry's text exposition.
///
/// Shutdown (SIGINT/SIGTERM via Server::request_shutdown, or a "shutdown"
/// op frame) is graceful: admission closes, queued connections drain,
/// in-flight requests finish, the cache flushes to the sweep store, and a
/// final metrics snapshot becomes available via final_snapshot().
namespace hetsched::serve {

struct ServeOptions {
  /// Bind address. The daemon is a loopback service by design; binding a
  /// routable address is the operator's explicit choice.
  std::string host = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral port (see Server::port).
  int port = 0;
  /// Worker threads == maximum in-flight requests.
  unsigned workers = 4;
  /// Bounded pending-connection queue (admission control).
  std::size_t max_queue = 64;
  /// On-disk sweep cache directory fronted by the shard cache; empty
  /// disables persistence.
  std::string cache_dir;
  /// Floor of the backoff hint carried by overload responses; the live
  /// hint additionally folds in observed queue-wait times (see
  /// Server::overload_retry_hint_ms).
  double retry_after_ms = 50.0;
  /// Receive-timeout granularity on accepted sockets: how quickly a worker
  /// blocked on an idle keep-alive connection notices a shutdown.
  int idle_timeout_ms = 200;
  /// How many finished request trees the trace store retains for
  /// `trace-dump` (ring; oldest evicted first).
  std::size_t trace_capacity = 256;
};

/// One audit entry per served query decision.
struct ServeAuditEntry {
  std::int64_t sequence = 0;
  std::string trace_id;  ///< correlates the entry with its request tree
  std::string op;
  std::string app;
  std::string status;  ///< response_status_name of what was sent
  bool cache_hit = false;
};

class Server {
 public:
  explicit Server(ServeOptions options);
  /// Joins everything; equivalent to shutdown() + wait() if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the acceptor + worker threads. Throws
  /// hetsched::Error when the socket cannot be bound.
  void start();

  /// The bound port (the kernel's choice when options.port == 0). Valid
  /// after start().
  int port() const { return port_; }
  const ServeOptions& options() const { return options_; }

  /// Begins graceful shutdown (idempotent, safe from any thread): stop
  /// admitting, drain, flush, snapshot. Returns immediately; use wait().
  void request_shutdown();
  /// True once request_shutdown was called (by signal, API, or a shutdown
  /// frame).
  bool shutdown_requested() const {
    return stopping_.load(std::memory_order_acquire);
  }
  /// Blocks until the daemon has fully drained and stopped.
  void wait();
  /// Blocks until shutdown is requested or `timeout_ms` elapses; returns
  /// shutdown_requested(). The serve verb's signal loop ticks on this.
  bool wait_for_shutdown_request(int timeout_ms);

  /// Current Prometheus text exposition (what GET /metrics serves).
  std::string metrics_prometheus() const;
  /// The final exposition captured after drain (valid after wait()).
  const std::string& final_snapshot() const { return final_snapshot_; }

  const ShardedScenarioCache& cache() const { return *cache_; }
  const AdmissionQueue& queue() const { return *queue_; }
  /// Finished request span trees (bounded ring; what trace-dump serves).
  const obs::RequestTraceStore& traces() const { return traces_; }
  /// Decision audit log (bounded; newest entries win).
  std::vector<ServeAuditEntry> audit_log() const;

  /// Total query frames answered, by response status (for tests).
  std::int64_t responses_sent(ResponseStatus status) const;

 private:
  /// Trace context of one frame being handled (built per frame by
  /// serve_connection; the first frame inherits the connection's accept
  /// context, later keep-alive frames start fresh at frame read).
  struct FrameTraceInfo {
    std::string trace_id;
    /// ms between connection accept and frame-handling start (first frame
    /// only); shifts the tree's epoch back so [0] is the accept instant.
    double pre_ms = 0.0;
    /// Admission queue wait (first frame only).
    double queue_wait_ms = 0.0;
    bool first = false;
  };

  void acceptor_loop();
  void worker_loop();
  void serve_connection(const AdmittedConnection& connection,
                        double queue_wait_ms);
  /// Returns false when the connection should close after this frame.
  bool handle_query_frame(int fd, const std::string& frame,
                          const FrameTraceInfo& info);
  void handle_http(int fd, const std::string& request_line,
                   FrameReader& reader);
  QueryResponse respond(const QueryRequest& request,
                        obs::RequestTraceBuilder& builder);
  QueryResponse respond_trace_dump(const QueryRequest& request);
  void record_response(const QueryRequest* request, ResponseStatus status,
                       bool cache_hit, double latency_ms,
                       std::string_view trace_id = {});
  void audit(const QueryRequest& request, ResponseStatus status,
             bool cache_hit, const std::string& trace_id);
  void set_queue_depth_gauge();
  /// Validates and publishes a finished tree; invalid trees are still
  /// retained (debuggability) but counted in serve_trace_invalid_total.
  void publish_trace(obs::RequestTree tree);
  /// Live overload backoff hint: the configured floor, raised by the
  /// observed queue-wait EMA scaled to the current backlog.
  double overload_retry_hint_ms();
  void note_queue_wait(double wait_ms, const std::string& trace_id);

  ServeOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;

  std::unique_ptr<sweep::ResultCache> disk_;
  std::unique_ptr<ShardedScenarioCache> cache_;
  std::unique_ptr<AdmissionQueue> queue_;

  std::thread acceptor_;
  std::vector<std::thread> workers_;

  std::atomic<bool> stopping_{false};
  std::mutex lifecycle_mutex_;
  std::condition_variable lifecycle_cv_;
  bool started_ = false;
  bool stopped_ = false;
  /// Set by the wait() caller that performs the join/flush/snapshot, so
  /// concurrent wait()s block instead of double-joining.
  bool finalizing_in_progress_ = false;

  /// MetricsRegistry is not thread-safe; every touch goes through
  /// metrics_mutex_. Snapshots serialize under the same lock.
  mutable std::mutex metrics_mutex_;
  obs::MetricsRegistry metrics_;
  /// EMA of observed queue waits (ms), guarded by metrics_mutex_; input to
  /// the overload retry_after_ms heuristic.
  double ema_queue_wait_ms_ = 0.0;

  obs::RequestTraceStore traces_;
  std::atomic<std::int64_t> responses_ok_{0};
  std::atomic<std::int64_t> responses_error_{0};
  std::atomic<std::int64_t> responses_overload_{0};
  std::atomic<std::int64_t> responses_shutting_down_{0};

  mutable std::mutex audit_mutex_;
  std::vector<ServeAuditEntry> audit_log_;
  std::int64_t audit_sequence_ = 0;

  std::string final_snapshot_;
};

}  // namespace hetsched::serve
