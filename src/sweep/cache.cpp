#include "sweep/cache.hpp"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "sweep/scenario.hpp"

namespace hetsched::sweep {

namespace fs = std::filesystem;

namespace {

constexpr const char* kMagic = "hs-sweep-cache-v1";

/// Distinguishes temp files written by concurrent stores in one process.
std::atomic<std::uint64_t> temp_counter{0};

}  // namespace

ResultCache::ResultCache(std::string directory)
    : directory_(std::move(directory)) {
  HS_REQUIRE(!directory_.empty(), "cache directory must not be empty");
  fs::create_directories(directory_);
}

std::string ResultCache::path_for(const std::string& key) const {
  const std::uint64_t hash = fnv1a64(key);
  std::ostringstream os;
  os << std::hex;
  for (int shift = 60; shift >= 0; shift -= 4) os << ((hash >> shift) & 0xF);
  return (fs::path(directory_) / (os.str() + ".json")).string();
}

namespace {

enum class EntryStatus { kHit, kNoEntry, kKeyMismatch, kCorrupt };

EntryStatus read_entry(const std::string& path, const std::string& key,
                       std::string& payload) {
  std::ifstream file(path, std::ios::binary);
  if (!file.good()) return EntryStatus::kNoEntry;

  // Length lines are untrusted input: a corrupt entry must not be able to
  // request a multi-GB allocation (std::bad_alloc would abort the whole
  // sweep). Nothing framed inside the file can be longer than the file.
  file.seekg(0, std::ios::end);
  const std::streamoff file_size = file.tellg();
  file.seekg(0, std::ios::beg);
  if (file_size < 0) return EntryStatus::kCorrupt;
  const auto parse_bounded_length =
      [file_size](const std::string& line, std::size_t& out) {
        try {
          const unsigned long long value = std::stoull(line);
          if (value > static_cast<unsigned long long>(file_size)) return false;
          out = static_cast<std::size_t>(value);
          return true;
        } catch (const std::exception&) {
          return false;
        }
      };

  std::string magic;
  if (!std::getline(file, magic) || magic != kMagic) {
    return EntryStatus::kCorrupt;
  }
  std::string length_line;
  if (!std::getline(file, length_line)) return EntryStatus::kCorrupt;
  std::size_t key_length = 0;
  if (!parse_bounded_length(length_line, key_length)) {
    return EntryStatus::kCorrupt;
  }
  std::string stored_key(key_length, '\0');
  if (!file.read(stored_key.data(),
                 static_cast<std::streamsize>(key_length))) {
    return EntryStatus::kCorrupt;
  }
  // Digest collision or stale entry: treat as a miss, never as a hit. The
  // entry itself may be valid for some other key, so it is not corrupt.
  if (stored_key != key) return EntryStatus::kKeyMismatch;
  if (file.get() != '\n') return EntryStatus::kCorrupt;

  std::string payload_length_line;
  if (!std::getline(file, payload_length_line)) return EntryStatus::kCorrupt;
  std::size_t payload_length = 0;
  if (!parse_bounded_length(payload_length_line, payload_length)) {
    return EntryStatus::kCorrupt;
  }
  payload.assign(payload_length, '\0');
  if (!file.read(payload.data(),
                 static_cast<std::streamsize>(payload_length))) {
    return EntryStatus::kCorrupt;  // truncated entry
  }
  if (file.get() != std::ifstream::traits_type::eof()) {
    return EntryStatus::kCorrupt;  // trailing garbage
  }
  return EntryStatus::kHit;
}

}  // namespace

std::optional<std::string> ResultCache::load(const std::string& key) const {
  const std::string path = path_for(key);
  std::string payload;
  switch (read_entry(path, key, payload)) {
    case EntryStatus::kHit:
      hits_.fetch_add(1, std::memory_order_relaxed);
      return payload;
    case EntryStatus::kCorrupt: {
      // A corrupt file would shadow this slot forever; drop it now so the
      // recomputed result can land cleanly.
      std::error_code ec;
      if (fs::remove(path, ec)) {
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    case EntryStatus::kNoEntry:
    case EntryStatus::kKeyMismatch:
      break;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void ResultCache::evict(const std::string& key) const {
  std::error_code ec;
  if (fs::remove(path_for(key), ec)) {
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool ResultCache::store(const std::string& key,
                        const std::string& payload) const {
  const std::string path = path_for(key);
  const std::string temp =
      path + ".tmp" +
      std::to_string(temp_counter.fetch_add(1, std::memory_order_relaxed));
  const auto drop = [&](const char* why) {
    HS_WARN << "sweep cache store dropped (" << why << "): " << path;
    std::error_code cleanup_ec;
    fs::remove(temp, cleanup_ec);
    dropped_stores_.fetch_add(1, std::memory_order_relaxed);
    return false;
  };
  {
    std::ofstream file(temp, std::ios::binary | std::ios::trunc);
    if (!file.good()) return drop("cannot open temp file");
    file << kMagic << "\n" << key.size() << "\n" << key << "\n"
         << payload.size() << "\n" << payload;
    file.flush();
    if (!file.good()) return drop("short write");
  }
  // One failed rename must not throw out of a post-sweep store loop and
  // discard the remaining computed results.
  std::error_code ec;
  fs::rename(temp, path, ec);
  if (ec) return drop(ec.message().c_str());
  stores_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace hetsched::sweep
