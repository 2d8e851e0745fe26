#include "obs/phase_profiler.hpp"

#include <chrono>

namespace hetsched::obs {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Innermost open phase on this thread; children report their inclusive time
// to it so the parent can subtract and record self time.
thread_local ScopedPhase* g_open_phase = nullptr;

}  // namespace

void PhaseProfiler::record(std::string_view stage, double inclusive_ms,
                           double self_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  PhaseStats& stats = stages_[std::string(stage)];
  stats.calls += 1;
  stats.total_ms += inclusive_ms;
  stats.self_ms += self_ms;
  if (inclusive_ms > stats.max_ms) stats.max_ms = inclusive_ms;
}

std::map<std::string, PhaseStats> PhaseProfiler::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stages_;
}

PhaseProfiler& phase_profiler() {
  static PhaseProfiler profiler;
  return profiler;
}

ScopedPhase::ScopedPhase(std::string_view stage, PhaseProfiler& profiler)
    : profiler_(profiler), stage_(stage), start_ns_(now_ns()) {
  parent_ = g_open_phase;
  g_open_phase = this;
}

ScopedPhase::~ScopedPhase() {
  const double inclusive_ms =
      static_cast<double>(now_ns() - start_ns_) / 1e6;
  g_open_phase = parent_;
  if (parent_ != nullptr) parent_->child_ms_ += inclusive_ms;
  double self_ms = inclusive_ms - child_ms_;
  if (self_ms < 0.0) self_ms = 0.0;
  profiler_.record(stage_, inclusive_ms, self_ms);
}

}  // namespace hetsched::obs
