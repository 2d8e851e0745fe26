#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "common/json.hpp"

namespace perfbench {

namespace {

/// Innermost open scope on this thread, and the buffer this thread writes
/// for the recorder (by generation) it last used.
thread_local SpanRecorder::Scope* g_open = nullptr;
thread_local std::uint64_t g_buffer_generation = 0;
thread_local void* g_buffer = nullptr;

std::atomic<std::uint64_t> g_generations{0};

}  // namespace

SpanRecorder::SpanRecorder() : generation_(++g_generations) {}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::Buffer& SpanRecorder::buffer() {
  if (g_buffer_generation != generation_) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->spans.reserve(4096);
    g_buffer = buffers_.back().get();
    g_buffer_generation = generation_;
  }
  return *static_cast<Buffer*>(g_buffer);
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name,
                           std::uint64_t unit)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  Span opened;
  opened.name = name;
  opened.id = recorder_->next_id_.fetch_add(1, std::memory_order_relaxed);
  outer_ = g_open;
  if (outer_ != nullptr && outer_->recorder_ == recorder_) {
    const Span& parent = recorder_->span(outer_->index_);
    opened.parent = parent.id;
    opened.unit = parent.unit;
  } else {
    opened.unit = unit;
  }
  Buffer& buffer = recorder_->buffer();
  index_ = buffer.spans.size();
  opened.start_ns = now_ns();
  buffer.spans.push_back(std::move(opened));
  g_open = this;
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  recorder_->span(index_).end_ns = now_ns();
  g_open = outer_;
}

void SpanRecorder::Scope::set_a(std::int64_t value) {
  if (recorder_ != nullptr) recorder_->span(index_).a = value;
}

void SpanRecorder::Scope::set_b(std::int64_t value) {
  if (recorder_ != nullptr) recorder_->span(index_).b = value;
}

void SpanRecorder::Scope::set_nested_ns(std::int64_t value) {
  if (recorder_ != nullptr) recorder_->span(index_).nested_ns = value;
}

std::uint64_t SpanRecorder::add(const char* name, std::uint64_t unit,
                                std::int64_t start_ns, std::int64_t end_ns,
                                std::uint64_t parent) {
  Span done;
  done.name = name;
  done.unit = unit;
  done.parent = parent;
  done.start_ns = start_ns;
  done.end_ns = end_ns;
  done.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  buffer().spans.push_back(std::move(done));
  return buffer().spans.back().id;
}

std::vector<Span> SpanRecorder::collect() const {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::unique_ptr<Buffer>& buffer : buffers_)
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  std::sort(all.begin(), all.end(),
            [](const Span& x, const Span& y) { return x.id < y.id; });
  return all;
}

std::vector<std::string> validate_spans(const std::vector<Span>& spans) {
  std::vector<std::string> problems;
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const Span& span : spans) {
    if (!by_id.emplace(span.id, &span).second)
      problems.push_back("duplicate span id " + std::to_string(span.id));
    if (span.end_ns < span.start_ns)
      problems.push_back("span " + std::to_string(span.id) + " (" +
                         span.name + ") not closed");
  }
  for (const Span& span : spans) {
    if (span.parent == 0) continue;
    const auto it = by_id.find(span.parent);
    if (it == by_id.end()) {
      problems.push_back("span " + std::to_string(span.id) +
                         " has unknown parent");
      continue;
    }
    const Span& parent = *it->second;
    if (span.start_ns < parent.start_ns || span.end_ns > parent.end_ns)
      problems.push_back("span " + std::to_string(span.id) + " (" +
                         span.name + ") escapes its parent");
    if (span.unit != parent.unit)
      problems.push_back("span " + std::to_string(span.id) +
                         " changes unit under its parent");
  }
  for (const auto& [id, self] : self_times(spans)) {
    if (self < 0)
      problems.push_back("span " + std::to_string(id) +
                         " has negative self time");
  }
  return problems;
}

std::map<std::uint64_t, std::int64_t> self_times(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::int64_t> self;
  for (const Span& span : spans) self[span.id] += span.duration_ns();
  for (const Span& span : spans) {
    if (span.parent != 0) self[span.parent] -= span.duration_ns();
  }
  return self;
}

std::string spans_to_json(const std::vector<Span>& spans) {
  namespace json = hetsched::json;
  const auto self = self_times(spans);
  json::Value list{json::Value::Array{}};
  for (const Span& span : spans) {
    json::Value entry;
    entry.set("id", json::Value(static_cast<std::int64_t>(span.id)));
    entry.set("parent", json::Value(static_cast<std::int64_t>(span.parent)));
    entry.set("unit", json::Value(static_cast<std::int64_t>(span.unit)));
    entry.set("name", json::Value(span.name));
    entry.set("start_ns", json::Value(span.start_ns));
    entry.set("end_ns", json::Value(span.end_ns));
    entry.set("self_ns", json::Value(self.at(span.id)));
    if (span.nested_ns != 0) entry.set("nested_ns", json::Value(span.nested_ns));
    if (span.a != 0) entry.set("a", json::Value(span.a));
    if (span.b != 0) entry.set("b", json::Value(span.b));
    list.push_back(std::move(entry));
  }
  json::Value document;
  document.set("spans", std::move(list));
  return document.dump();
}

}  // namespace perfbench
