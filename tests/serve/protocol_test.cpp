#include "serve/protocol.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>

#include "common/error.hpp"

namespace hetsched::serve {
namespace {

TEST(QueryRequestTest, JsonRoundTripPreservesEveryField) {
  QueryRequest request;
  request.op = "analyze";
  request.app = "matrixmul";
  request.platform = "small-gpu";
  request.strategy = "dp-perf";
  request.sync = true;
  request.small = true;
  request.tasks = 24;
  request.gantt = true;
  request.json = true;

  const QueryRequest back = QueryRequest::from_json(request.to_json());
  EXPECT_EQ(back.op, request.op);
  EXPECT_EQ(back.app, request.app);
  EXPECT_EQ(back.platform, request.platform);
  EXPECT_EQ(back.strategy, request.strategy);
  EXPECT_EQ(back.sync, request.sync);
  EXPECT_EQ(back.small, request.small);
  EXPECT_EQ(back.tasks, request.tasks);
  EXPECT_EQ(back.gantt, request.gantt);
  EXPECT_EQ(back.json, request.json);
}

TEST(QueryRequestTest, EncodingIsByteStable) {
  QueryRequest request;
  request.app = "nbody";
  request.small = true;
  EXPECT_EQ(request.to_json().dump(), request.to_json().dump());
}

TEST(QueryRequestTest, VersionMismatchThrows) {
  QueryRequest request;
  request.app = "nbody";
  json::Value frame = request.to_json();
  frame.set("version", json::Value("hs-serve-0"));
  EXPECT_THROW(QueryRequest::from_json(frame), Error);
}

json::Value frame_with_tasks(const std::string& tasks_text) {
  QueryRequest request;
  request.app = "nbody";
  json::Value frame = request.to_json();
  frame.set("tasks", json::Value::parse(tasks_text));
  return frame;
}

// A frame is untrusted: a tasks count must neither wrap through the int
// cast (2^32 + 5 would be served as 5) nor ask the runner for billions of
// per-task allocations.
TEST(QueryRequestTest, TasksOutsideTheServedRangeAreRejected) {
  for (const char* tasks : {"-1", "4294967301", "2000000000"}) {
    EXPECT_THROW(QueryRequest::from_json(frame_with_tasks(tasks)),
                 InvalidArgument)
        << tasks;
  }
  EXPECT_THROW(QueryRequest::from_json(frame_with_tasks(
                   std::to_string(kMaxServedTasks + 1))),
               InvalidArgument);
}

TEST(QueryRequestTest, TasksUpToTheServedBoundParse) {
  EXPECT_EQ(QueryRequest::from_json(frame_with_tasks("0")).tasks, 0);
  EXPECT_EQ(QueryRequest::from_json(
                frame_with_tasks(std::to_string(kMaxServedTasks)))
                .tasks,
            kMaxServedTasks);
}

TEST(QueryRequestTest, CacheKeyClosesOverAnswerAffectingFields) {
  QueryRequest a;
  a.app = "matrixmul";
  a.small = true;
  const std::string base = a.cache_key();
  EXPECT_EQ(base, a.cache_key()) << "key must be deterministic";

  QueryRequest b = a;
  b.op = "explain";
  EXPECT_NE(b.cache_key(), base);
  b = a;
  b.sync = true;
  EXPECT_NE(b.cache_key(), base);
  b = a;
  b.platform = "dual-gpu";
  EXPECT_NE(b.cache_key(), base);
  b = a;
  b.tasks = 7;
  EXPECT_NE(b.cache_key(), base);
  b = a;
  b.gantt = true;
  EXPECT_NE(b.cache_key(), base);
  b = a;
  b.json = true;
  EXPECT_NE(b.cache_key(), base);

  // The protocol version is part of the closure: a daemon upgrade can
  // never serve bytes cached under older semantics.
  EXPECT_NE(base.find(kProtocolVersion), std::string::npos);
}

TEST(QueryResponseTest, JsonRoundTripPreservesEveryField) {
  QueryResponse response;
  response.status = ResponseStatus::kOverload;
  response.output = "line one\nline two\n";
  response.error = "queue full";
  response.retry_after_ms = 75.0;
  response.cache_hit = true;

  const QueryResponse back = QueryResponse::from_json(response.to_json());
  EXPECT_EQ(back.status, response.status);
  EXPECT_EQ(back.output, response.output);
  EXPECT_EQ(back.error, response.error);
  EXPECT_DOUBLE_EQ(back.retry_after_ms, response.retry_after_ms);
  EXPECT_EQ(back.cache_hit, response.cache_hit);
}

TEST(QueryResponseTest, OutputWithNewlinesSurvivesOneFrame) {
  // The whole point of JSON framing: multi-line CLI output rides in ONE
  // newline-delimited frame because dump() escapes control characters.
  QueryResponse response;
  response.output = "a\nb\nc\n";
  const std::string frame = response.to_json().dump();
  EXPECT_EQ(frame.find('\n'), std::string::npos);
  EXPECT_EQ(QueryResponse::from_json(json::Value::parse(frame)).output,
            response.output);
}

TEST(ResponseStatusTest, NamesRoundTrip) {
  for (ResponseStatus status :
       {ResponseStatus::kOk, ResponseStatus::kError,
        ResponseStatus::kOverload, ResponseStatus::kShuttingDown}) {
    EXPECT_EQ(response_status_from_name(response_status_name(status)),
              status);
  }
  EXPECT_THROW(response_status_from_name("nonsense"), Error);
}

class FrameReaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }
  int fds_[2] = {-1, -1};
};

TEST_F(FrameReaderTest, SplitsPipelinedFrames) {
  ASSERT_TRUE(write_all(fds_[0], "first\nsecond\nthird\n"));
  FrameReader reader(fds_[1]);
  std::string frame;
  ASSERT_EQ(reader.read(frame), FrameReader::Result::kFrame);
  EXPECT_EQ(frame, "first");
  ASSERT_EQ(reader.read(frame), FrameReader::Result::kFrame);
  EXPECT_EQ(frame, "second");
  ASSERT_EQ(reader.read(frame), FrameReader::Result::kFrame);
  EXPECT_EQ(frame, "third");
}

TEST_F(FrameReaderTest, StripsCarriageReturnForHttpLines) {
  ASSERT_TRUE(write_all(fds_[0], "GET /metrics HTTP/1.1\r\n\r\n"));
  FrameReader reader(fds_[1]);
  std::string frame;
  ASSERT_EQ(reader.read(frame), FrameReader::Result::kFrame);
  EXPECT_EQ(frame, "GET /metrics HTTP/1.1");
  ASSERT_EQ(reader.read(frame), FrameReader::Result::kFrame);
  EXPECT_EQ(frame, "");
}

TEST_F(FrameReaderTest, ReportsPeerClose) {
  ASSERT_TRUE(write_all(fds_[0], "only\n"));
  ::close(fds_[0]);
  fds_[0] = -1;
  FrameReader reader(fds_[1]);
  std::string frame;
  ASSERT_EQ(reader.read(frame), FrameReader::Result::kFrame);
  EXPECT_EQ(reader.read(frame), FrameReader::Result::kClosed);
}

TEST_F(FrameReaderTest, GivesUpWhenFlagSetOnTimeout) {
  // Arm a short receive timeout and a raised give_up flag: the reader must
  // return kGaveUp instead of re-arming forever (the shutdown drain path).
  timeval tv{};
  tv.tv_usec = 20'000;
  ASSERT_EQ(::setsockopt(fds_[1], SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)),
            0);
  std::atomic<bool> give_up{true};
  FrameReader reader(fds_[1]);
  std::string frame;
  EXPECT_EQ(reader.read(frame, &give_up), FrameReader::Result::kGaveUp);
}

TEST_F(FrameReaderTest, OverflowDisconnectsInsteadOfBuffering) {
  const std::string huge(kMaxFrameBytes + 1, 'x');  // no newline anywhere
  std::atomic<bool> done{false};
  std::thread writer([&] {
    write_all(fds_[0], huge);
    done = true;
  });
  FrameReader reader(fds_[1]);
  std::string frame;
  EXPECT_EQ(reader.read(frame), FrameReader::Result::kOverflow);
  // Unblock the writer if the socket buffer filled before the overflow.
  ::close(fds_[1]);
  fds_[1] = -1;
  writer.join();
  EXPECT_TRUE(done.load());
}

}  // namespace
}  // namespace hetsched::serve
