#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

/// Sharded single-flight table: computes each key's value at most once per
/// table lifetime, however many threads ask for it concurrently.
///
/// The first caller of a key becomes its owner and runs `compute`; callers
/// that arrive while (or after) it runs share the owner's result through a
/// std::shared_future instead of racing their own computation. Ownership is
/// decided under the key's shard mutex, but `compute` runs outside every
/// lock, so distinct keys never serialize each other and a computation may
/// itself look up other keys in the same table.
///
/// A `compute` that throws hands the exception to every waiter of that
/// flight and frees the slot, so the next caller retries instead of
/// replaying the failure.
///
/// The sweep's in-run scenario memo and the serve daemon's scenario cache
/// are both this table; each keeps its own counters at the call site.
namespace hetsched {

template <typename V, typename Hash = std::hash<std::string>>
class SingleFlight {
 public:
  using ValuePtr = std::shared_ptr<const V>;

  struct Result {
    ValuePtr value;
    /// True for the one lookup that ran `compute` for this value.
    bool owner = false;
    /// True when this lookup blocked on a computation still in flight
    /// rather than reading a finished entry.
    bool joined = false;
    /// The `leader` tag the owner passed (empty on the owner's own result).
    std::string leader;
  };

  /// `shards` is clamped to at least 1.
  explicit SingleFlight(std::size_t shards = 1, Hash hash = Hash{})
      : shards_(std::max<std::size_t>(1, shards)), hash_(std::move(hash)) {}

  SingleFlight(const SingleFlight&) = delete;
  SingleFlight& operator=(const SingleFlight&) = delete;

  /// Returns the value for `key`, invoking `compute` (a callable returning
  /// V) only when no lookup of `key` has completed or is in flight. Blocks
  /// until the owner finishes when another thread got there first, and
  /// rethrows the owner's exception if its `compute` threw. `leader` is
  /// recorded with a new flight and handed to the lookups that share it.
  template <typename Compute>
  Result get_or_compute(const std::string& key, Compute&& compute,
                        std::string_view leader = {}) {
    Shard& shard = shards_[shard_index(key)];
    std::promise<ValuePtr> promise;
    Result result;
    std::shared_future<ValuePtr> flight;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      auto it = shard.flights.find(key);
      if (it == shard.flights.end()) {
        result.owner = true;
        shard.flights.emplace(
            key, Flight{promise.get_future().share(), std::string(leader)});
      } else {
        flight = it->second.future;
        result.leader = it->second.leader;
      }
    }

    if (!result.owner) {
      // Sampled before the blocking get: a flight not yet ready means this
      // lookup joins a live computation.
      result.joined = flight.wait_for(std::chrono::seconds(0)) !=
                      std::future_status::ready;
      result.value = flight.get();
      return result;
    }

    try {
      result.value = std::make_shared<const V>(compute());
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.flights.erase(key);
      }
      promise.set_exception(std::current_exception());
      throw;
    }
    promise.set_value(result.value);
    return result;
  }

  std::size_t shard_count() const { return shards_.size(); }

  /// Shard `key` maps to.
  std::size_t shard_index(const std::string& key) const {
    return static_cast<std::size_t>(hash_(key)) % shards_.size();
  }

  /// Keys with a finished or in-flight value, across all shards.
  std::size_t entries() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      total += shard.flights.size();
    }
    return total;
  }

 private:
  struct Flight {
    std::shared_future<ValuePtr> future;
    std::string leader;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, Flight> flights;
  };

  std::vector<Shard> shards_;
  Hash hash_;
};

}  // namespace hetsched
