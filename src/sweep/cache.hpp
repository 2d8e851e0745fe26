#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

/// Content-addressed on-disk result cache for the sweep engine.
///
/// Entries are keyed by the full canonical scenario key (see
/// sweep::scenario_key); the file name is the FNV-1a digest of the key, and
/// the file stores the key itself ahead of the payload so a digest
/// collision or a stale/corrupt file degrades to a miss, never to a wrong
/// result. Corrupt entries (bad magic, torn framing, trailing garbage) are
/// deleted on discovery — counted as evictions — so they cannot shadow the
/// slot forever. Writes go through a temporary file + rename so concurrent
/// sweeps sharing a cache directory cannot observe torn entries.
namespace hetsched::sweep {

/// Snapshot of the cache's activity counters (per ResultCache instance).
struct CacheCounters {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t stores = 0;
  std::int64_t evictions = 0;
  /// Store attempts that could not land (unwritable directory, failed
  /// rename). Stores are best-effort: a drop loses reuse, never a result.
  std::int64_t dropped_stores = 0;
};

class ResultCache {
 public:
  /// Opens (and lazily creates) the cache rooted at `directory`.
  explicit ResultCache(std::string directory);

  const std::string& directory() const { return directory_; }

  /// Returns the payload stored for `key`, or nullopt on a miss (no entry,
  /// unreadable entry, or an entry whose stored key does not match `key`).
  std::optional<std::string> load(const std::string& key) const;

  /// Stores `payload` under `key`, replacing any previous entry. Best
  /// effort: on an I/O failure (unwritable directory, failed rename) the
  /// temp file is cleaned up, a warning is logged, dropped_stores is
  /// counted, and false is returned — one bad slot never aborts the rest of
  /// a sweep's store loop.
  bool store(const std::string& key, const std::string& payload) const;

  /// Deletes the entry for `key` (e.g. its payload failed deserialization
  /// downstream). Counted as an eviction when a file was actually removed.
  void evict(const std::string& key) const;

  /// The file an entry for `key` lives in (exposed for tests).
  std::string path_for(const std::string& key) const;

  CacheCounters counters() const {
    return {hits_.load(), misses_.load(), stores_.load(), evictions_.load(),
            dropped_stores_.load()};
  }

 private:
  std::string directory_;
  /// Atomics: loads run on the coordinating thread but stores/evictions may
  /// land from sweep worker threads.
  mutable std::atomic<std::int64_t> hits_{0};
  mutable std::atomic<std::int64_t> misses_{0};
  mutable std::atomic<std::int64_t> stores_{0};
  mutable std::atomic<std::int64_t> evictions_{0};
  mutable std::atomic<std::int64_t> dropped_stores_{0};
};

}  // namespace hetsched::sweep
