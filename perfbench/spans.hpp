#pragma once

#include <cstdint>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

/// In-memory span recorder of the benchmark's traced runs.
///
/// A span wraps one call from the benchmark into a layer's public function.
/// It has a name, start, end, parent span and the id of the scenario or
/// request it belongs to (children inherit the id of their parent). Spans
/// are kept in per-thread buffers and only serialized once, at the end of
/// the run. With a null recorder a Scope does nothing, which is how the
/// untraced replay runs the same code path.
namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t unit = 0;    ///< scenario / request id
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while open
  /// Time spent in the program's own phases opened inside this call
  /// (obs::ScopedPhase nesting), where the caller measured it.
  std::int64_t nested_ns = 0;
  /// Free attributes (task count, edges, events, bytes ...).
  std::int64_t a = 0;
  std::int64_t b = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

std::int64_t now_ns();

class SpanRecorder {
 public:
  /// RAII span. Opening on a thread makes it that thread's current parent.
  class Scope {
   public:
    /// Child of the thread's innermost open span (or a root for `unit`).
    Scope(SpanRecorder* recorder, const char* name, std::uint64_t unit = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void set_a(std::int64_t value);
    void set_b(std::int64_t value);
    void set_nested_ns(std::int64_t value);

   private:
    SpanRecorder* recorder_;
    std::size_t index_ = 0;
    Scope* outer_ = nullptr;
  };

  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Records an already finished span (for work that does not nest on one
  /// thread, such as a pipelined request); returns its id.
  std::uint64_t add(const char* name, std::uint64_t unit,
                    std::int64_t start_ns, std::int64_t end_ns,
                    std::uint64_t parent = 0);

  /// All spans recorded so far, ordered by id.
  std::vector<Span> collect() const;

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer& buffer();
  Span& span(std::size_t index) { return buffer().spans[index]; }

  /// Never reused, unlike an address: keys this thread's buffer pointer.
  const std::uint64_t generation_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::atomic<std::uint64_t> next_id_{1};
};

/// Well-formedness problems of a span set: unclosed spans, unknown parents,
/// children escaping their parent's interval or unit, negative self time.
std::vector<std::string> validate_spans(const std::vector<Span>& spans);

/// Self time of every span (duration minus its children's durations).
std::map<std::uint64_t, std::int64_t> self_times(
    const std::vector<Span>& spans);

/// One JSON document: {"spans":[{"id":..,"parent":..,"unit":..,"name":..,
/// "start_ns":..,"end_ns":..,"self_ns":..,...}]}.
std::string spans_to_json(const std::vector<Span>& spans);

}  // namespace perfbench
