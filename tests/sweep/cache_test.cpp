#include "sweep/cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

namespace hetsched::sweep {
namespace {

namespace fs = std::filesystem;

class ResultCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("hs_cache_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(ResultCacheTest, MissThenStoreThenHit) {
  ResultCache cache(dir_.string());
  EXPECT_FALSE(cache.load("key-a").has_value());
  cache.store("key-a", "payload-a");
  const auto loaded = cache.load("key-a");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "payload-a");
}

TEST_F(ResultCacheTest, StoreReplacesExistingEntry) {
  ResultCache cache(dir_.string());
  cache.store("key", "first");
  cache.store("key", "second");
  EXPECT_EQ(cache.load("key").value(), "second");
}

TEST_F(ResultCacheTest, PayloadMayContainAnyBytes) {
  ResultCache cache(dir_.string());
  const std::string payload("a\0b\nc\xff", 6);
  cache.store("key", payload);
  EXPECT_EQ(cache.load("key").value(), payload);
}

TEST_F(ResultCacheTest, DigestCollisionDegradesToMiss) {
  ResultCache cache(dir_.string());
  cache.store("key-a", "payload-a");
  // Simulate an FNV collision: another key mapping to key-a's file. The
  // stored key is verified on load, so this must be a miss, not payload-a.
  const fs::path colliding = cache.path_for("key-a");
  std::ofstream out(colliding, std::ios::binary | std::ios::trunc);
  out << "hs-sweep-cache-v1\n" << 5 << "\nother\npayload-b";
  out.close();
  EXPECT_FALSE(cache.load("key-a").has_value());
}

TEST_F(ResultCacheTest, CorruptEntryDegradesToMiss) {
  ResultCache cache(dir_.string());
  cache.store("key", "payload");
  std::ofstream out(cache.path_for("key"), std::ios::binary | std::ios::trunc);
  out << "not a cache file";
  out.close();
  EXPECT_FALSE(cache.load("key").has_value());
}

TEST_F(ResultCacheTest, TruncatedEntryDegradesToMiss) {
  ResultCache cache(dir_.string());
  cache.store("key", "a long enough payload to truncate");
  const fs::path path = cache.path_for("key");
  fs::resize_file(path, fs::file_size(path) / 2);
  EXPECT_FALSE(cache.load("key").has_value());
}

TEST_F(ResultCacheTest, OversizedKeyLengthDegradesToMiss) {
  ResultCache cache(dir_.string());
  // A corrupt length line must not be able to request a multi-GB string
  // allocation (std::bad_alloc would abort the whole sweep): lengths are
  // bounded by the file size, so this is a plain corrupt-entry miss.
  std::ofstream out(cache.path_for("key"), std::ios::binary | std::ios::trunc);
  out << "hs-sweep-cache-v1\n" << "99999999999999999\n" << "key\n"
      << 7 << "\npayload";
  out.close();
  EXPECT_FALSE(cache.load("key").has_value());
  // Corrupt entries are evicted on discovery.
  EXPECT_FALSE(fs::exists(cache.path_for("key")));
  EXPECT_EQ(cache.counters().evictions, 1);
}

TEST_F(ResultCacheTest, OversizedPayloadLengthDegradesToMiss) {
  ResultCache cache(dir_.string());
  std::ofstream out(cache.path_for("key"), std::ios::binary | std::ios::trunc);
  out << "hs-sweep-cache-v1\n" << 3 << "\nkey\n"
      << "88888888888888888888\npayload";
  out.close();
  EXPECT_FALSE(cache.load("key").has_value());
  EXPECT_EQ(cache.counters().evictions, 1);
}

TEST_F(ResultCacheTest, UnparsableLengthLineDegradesToMiss) {
  ResultCache cache(dir_.string());
  std::ofstream out(cache.path_for("key"), std::ios::binary | std::ios::trunc);
  out << "hs-sweep-cache-v1\nnot-a-number\nkey\n7\npayload";
  out.close();
  EXPECT_FALSE(cache.load("key").has_value());
}

TEST_F(ResultCacheTest, RenameFailureDropsStoreGracefully) {
  ResultCache cache(dir_.string());
  // A directory squatting on the entry's path makes the final rename fail.
  // Store must not throw (one bad slot would abort the whole post-sweep
  // store loop), must clean up its temp file, and must count the drop.
  fs::create_directories(cache.path_for("blocked-key"));
  EXPECT_FALSE(cache.store("blocked-key", "payload"));
  EXPECT_EQ(cache.counters().dropped_stores, 1);
  EXPECT_EQ(cache.counters().stores, 0);
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
    EXPECT_FALSE(entry.is_regular_file())
        << "temp file leaked: " << entry.path();
  }
  // Other slots are unaffected.
  EXPECT_TRUE(cache.store("good-key", "payload"));
  EXPECT_EQ(cache.load("good-key").value(), "payload");
}

TEST_F(ResultCacheTest, DistinctKeysGetDistinctFiles) {
  ResultCache cache(dir_.string());
  EXPECT_NE(cache.path_for("key-a"), cache.path_for("key-b"));
  cache.store("key-a", "a");
  cache.store("key-b", "b");
  EXPECT_EQ(cache.load("key-a").value(), "a");
  EXPECT_EQ(cache.load("key-b").value(), "b");
}

}  // namespace
}  // namespace hetsched::sweep
