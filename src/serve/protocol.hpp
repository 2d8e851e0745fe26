#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/json.hpp"

/// Wire protocol of the matchmaker daemon (`hetsched_cli serve`).
///
/// Frames are newline-delimited JSON documents over a TCP stream: one
/// request per line, one response per line, UTF-8, no embedded newlines
/// (json::Value::dump never emits raw control characters). The same
/// common/json layer that keeps the sweep cache byte-stable encodes both
/// directions, so a response's `output` member carries the offline CLI's
/// answer byte for byte.
///
/// The daemon also speaks just enough HTTP on the same port for a
/// Prometheus scrape: a connection whose first line starts with "GET " is
/// answered as an HTTP/1.1 exchange (see Server::handle_http) instead of a
/// frame stream.
namespace hetsched::serve {

/// Bump when the request schema, the cache-key closure, or response
/// semantics change: a daemon and client disagreeing on the version fail
/// loudly instead of mis-answering.
/// hs-serve-2: responses carry `trace_id`, requests may carry `trace`,
/// and the administrative `trace-dump` op returns a request span tree.
/// hs-serve-3: match/explain answers carry the platform's device count and
/// per-device suitability (N-device platforms) — same schema, new answer
/// bytes, so warm caches written by older daemons must miss.
inline constexpr const char* kProtocolVersion = "hs-serve-3";

/// Hard per-frame byte bound; a peer exceeding it is disconnected rather
/// than buffered without limit.
inline constexpr std::size_t kMaxFrameBytes = 1 << 20;

/// Largest chunk count a query may ask for: the largest any benchmark uses
/// (MatrixMul's 6144 rows, one per chunk). A frame is untrusted input, and
/// the strategy runner allocates per task.
inline constexpr std::int64_t kMaxServedTasks = 6144;

/// One matchmaking query. `op` selects which offline verb the answer must
/// be byte-identical to:
///   match      classify + strategy selection (hetsched_cli match)
///   explain    decision + predicted-time inputs (hetsched_cli explain)
///   analyze    utilization/overlap breakdown of a run (hetsched_cli analyze)
///   shutdown   administrative: ack, then begin graceful daemon shutdown
///   trace-dump administrative: return the request span tree named by
///              `trace` (empty = the most recent), as JSON in `output`
struct QueryRequest {
  std::string op = "match";
  std::string app;
  /// Platform variant ("" = reference, the CLI default).
  std::string platform;
  /// Strategy for analyze ("" = let the matchmaker pick).
  std::string strategy;
  bool sync = false;
  bool small = false;
  /// Chunk count m (0 = strategy default), the CLI's --tasks. from_json
  /// rejects values outside [0, kMaxServedTasks].
  int tasks = 0;
  /// analyze --gantt: append the timeline rendering.
  bool gantt = false;
  /// explain --json: machine-readable document instead of the rendering.
  bool json = false;
  /// trace-dump only: the trace_id to dump ("" = most recent). Ignored —
  /// and excluded from the cache key — for every other op.
  std::string trace;

  json::Value to_json() const;
  /// Throws InvalidArgument on malformed input or a version mismatch.
  static QueryRequest from_json(const json::Value& value);

  /// Canonical cache-key text: closes over every answer-affecting field
  /// plus kProtocolVersion, so two requests with equal keys are guaranteed
  /// the same response bytes.
  std::string cache_key() const;
};

enum class ResponseStatus {
  kOk,
  kError,
  /// Admission control rejected the connection; retry_after_ms hints when
  /// to try again.
  kOverload,
  /// The daemon is draining; no new requests are admitted.
  kShuttingDown,
};

const char* response_status_name(ResponseStatus status);
ResponseStatus response_status_from_name(const std::string& name);

struct QueryResponse {
  ResponseStatus status = ResponseStatus::kOk;
  /// The offline CLI's stdout for the equivalent invocation, byte for byte
  /// (set when status == kOk).
  std::string output;
  /// Human-readable failure description (status == kError).
  std::string error;
  /// Backoff hint for kOverload responses, milliseconds.
  double retry_after_ms = 0.0;
  /// True when the answer came from the daemon's scenario cache (in-memory
  /// shard or the on-disk store) instead of a fresh computation.
  bool cache_hit = false;
  /// The request's trace id (16 hex chars): the handle for `trace-dump`
  /// and the id exemplars in /metrics point at. Empty for responses the
  /// daemon answered before minting one (overload, shutting-down).
  std::string trace_id;

  json::Value to_json() const;
  static QueryResponse from_json(const json::Value& value);
};

/// Writes all of `bytes` to `fd`, retrying short writes and EINTR. Returns
/// false on a hard error (peer gone).
bool write_all(int fd, std::string_view bytes);

/// Serializes `value` and writes it as one newline-terminated frame.
bool write_frame(int fd, const json::Value& value);

/// Buffered line reader over a socket. The socket is expected to carry a
/// receive timeout (SO_RCVTIMEO): a timed-out read re-arms unless the
/// optional `give_up` flag is set, which is how the daemon drains blocked
/// keep-alive connections during shutdown.
class FrameReader {
 public:
  enum class Result {
    kFrame,     ///< `frame` holds one line, newline stripped
    kClosed,    ///< peer closed (or hard error)
    kGaveUp,    ///< read timed out while `give_up` was set
    kOverflow,  ///< peer exceeded kMaxFrameBytes without a newline
  };

  explicit FrameReader(int fd) : fd_(fd) {}

  Result read(std::string& frame,
              const std::atomic<bool>* give_up = nullptr);

 private:
  int fd_;
  std::string buffer_;
};

}  // namespace hetsched::serve
