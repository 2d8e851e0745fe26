#include "serve/shard_cache.hpp"

#include <optional>
#include <utility>

#include "common/error.hpp"
#include "sweep/cache.hpp"
#include "sweep/scenario.hpp"

namespace hetsched::serve {

std::size_t ShardedScenarioCache::KeyHash::operator()(
    const std::string& key) const {
  return static_cast<std::size_t>(sweep::fnv1a64(key));
}

ShardedScenarioCache::ShardedScenarioCache(std::size_t shards,
                                           const sweep::ResultCache* disk)
    : table_(shards), disk_(disk) {}

ShardedScenarioCache::Lookup ShardedScenarioCache::get_or_compute(
    const std::string& key, const ComputeFn& compute,
    std::string_view caller_trace) {
  HS_REQUIRE(compute != nullptr, "get_or_compute without a compute function");
  bool owner = false;
  bool disk_hit = false;
  // The owner consults the disk store inside its flight, so joiners of a
  // disk-loaded key wait on the load rather than racing a computation.
  const auto load_or_compute = [&]() -> std::string {
    owner = true;
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (disk_ != nullptr) {
      if (std::optional<std::string> stored = disk_->load(key)) {
        disk_hits_.fetch_add(1, std::memory_order_relaxed);
        disk_hit = true;
        return *std::move(stored);
      }
    }
    computes_.fetch_add(1, std::memory_order_relaxed);
    return compute();
  };
  SingleFlight<std::string, KeyHash>::Result result;
  try {
    result = table_.get_or_compute(key, load_or_compute, caller_trace);
  } catch (...) {
    // A joiner of a failed flight still counts as served by the entry.
    if (!owner) hits_.fetch_add(1, std::memory_order_relaxed);
    throw;
  }
  if (!owner) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else if (disk_ != nullptr && !disk_hit) {
    std::lock_guard<std::mutex> lock(dirty_mutex_);
    dirty_.emplace_back(key, result.value);
  }
  return {std::move(result.value), !owner, disk_hit, result.joined,
          std::move(result.leader)};
}

std::size_t ShardedScenarioCache::flush() {
  if (disk_ == nullptr) return 0;
  std::vector<std::pair<std::string, ValuePtr>> dirty;
  {
    std::lock_guard<std::mutex> lock(dirty_mutex_);
    dirty.swap(dirty_);
  }
  std::size_t written = 0;
  for (const auto& [key, value] : dirty) {
    if (disk_->store(key, *value)) {
      flushed_.fetch_add(1, std::memory_order_relaxed);
      ++written;
    } else {
      dropped_flushes_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return written;
}

ShardCacheCounters ShardedScenarioCache::counters() const {
  return {hits_.load(std::memory_order_relaxed),
          misses_.load(std::memory_order_relaxed),
          disk_hits_.load(std::memory_order_relaxed),
          computes_.load(std::memory_order_relaxed),
          flushed_.load(std::memory_order_relaxed),
          dropped_flushes_.load(std::memory_order_relaxed)};
}

}  // namespace hetsched::serve
