#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/service.hpp"
#include "sweep/cache.hpp"

namespace hetsched::serve {
namespace {

namespace fs = std::filesystem;

/// Sums every sample of `name{...}` (or bare `name`) in a Prometheus text
/// exposition.
double metric_sum(const std::string& exposition, const std::string& name) {
  double sum = 0.0;
  std::istringstream lines(exposition);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(name, 0) != 0) continue;
    const char after = line.size() > name.size() ? line[name.size()] : ' ';
    if (after != '{' && after != ' ') continue;  // e.g. _bucket suffixes
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    sum += std::stod(line.substr(space + 1));
  }
  return sum;
}

/// The rotating query mix the concurrent clients issue: every op, several
/// apps, all known-good on the reference platform.
QueryRequest mixed_request(int client, int index) {
  static const std::vector<std::string> kApps = {"matrixmul", "nbody",
                                                 "stream-seq"};
  const std::vector<std::string>& ops = served_ops();
  const std::size_t pick =
      static_cast<std::size_t>(client) * 7 + static_cast<std::size_t>(index);
  QueryRequest request;
  request.op = ops[pick % ops.size()];
  request.app = kApps[pick % kApps.size()];
  request.small = true;
  request.sync = (pick % 2) == 0;
  return request;
}

TEST(ServeLoopbackTest, ConcurrentClientsGetOfflineBytesAndMetricsAgree) {
  // The PR's acceptance scenario: >= 8 concurrent clients, mixed ops,
  // every response byte-identical to the offline answer, and a /metrics
  // scrape whose request counters match the client-side tally.
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 6;

  ServeOptions options;
  options.workers = 4;
  Server server(options);
  server.start();
  ASSERT_GT(server.port(), 0);

  struct Exchange {
    QueryRequest request;
    QueryResponse response;
  };
  std::vector<std::vector<Exchange>> per_client(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      QueryClient client("127.0.0.1", server.port());
      for (int i = 0; i < kRequestsPerClient; ++i) {
        Exchange exchange;
        exchange.request = mixed_request(c, i);
        exchange.response = client.ask(exchange.request);
        per_client[static_cast<std::size_t>(c)].push_back(
            std::move(exchange));
      }
    });
  }
  for (std::thread& client : clients) client.join();

  int tally = 0;
  for (const std::vector<Exchange>& exchanges : per_client) {
    for (const Exchange& exchange : exchanges) {
      ++tally;
      ASSERT_EQ(exchange.response.status, ResponseStatus::kOk);
      EXPECT_EQ(exchange.response.output, answer(exchange.request))
          << "served bytes differ from the offline answer for op="
          << exchange.request.op << " app=" << exchange.request.app;
    }
  }
  ASSERT_EQ(tally, kClients * kRequestsPerClient);

  // Scrape over HTTP on the same port; the counters must match the tally.
  const HttpResult scrape = http_get("127.0.0.1", server.port(), "/metrics");
  EXPECT_EQ(scrape.status_code, 200);
  EXPECT_DOUBLE_EQ(metric_sum(scrape.body, "hs_serve_requests_total"),
                   static_cast<double>(tally));
  EXPECT_DOUBLE_EQ(metric_sum(scrape.body, "hs_serve_cache_hits_total") +
                       metric_sum(scrape.body, "hs_serve_cache_misses_total"),
                   static_cast<double>(tally))
      << "every request is either a cache hit or a miss";
  EXPECT_DOUBLE_EQ(
      metric_sum(scrape.body, "hs_serve_request_latency_ms_count"),
      static_cast<double>(tally));

  // Unknown paths 404 without disturbing the daemon.
  EXPECT_EQ(http_get("127.0.0.1", server.port(), "/nope").status_code, 404);

  EXPECT_EQ(server.responses_sent(ResponseStatus::kOk), tally);
  EXPECT_EQ(static_cast<int>(server.audit_log().size()), tally)
      << "one audit entry per served decision";

  server.request_shutdown();
  server.wait();
  // The final snapshot still carries the request counters.
  EXPECT_DOUBLE_EQ(
      metric_sum(server.final_snapshot(), "hs_serve_requests_total"),
      static_cast<double>(tally));
}

TEST(ServeLoopbackTest, RepeatQueryIsACacheHitWithIdenticalBytes) {
  ServeOptions options;
  options.workers = 2;
  Server server(options);
  server.start();

  QueryRequest request;
  request.app = "hotspot";
  request.small = true;

  QueryClient client("127.0.0.1", server.port());
  const QueryResponse first = client.ask(request);
  const QueryResponse second = client.ask(request);
  ASSERT_EQ(first.status, ResponseStatus::kOk);
  ASSERT_EQ(second.status, ResponseStatus::kOk);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.output, second.output);

  server.request_shutdown();
  server.wait();
}

TEST(ServeLoopbackTest, UnknownAppAnswersErrorAndKeepsServing) {
  ServeOptions options;
  options.workers = 2;
  Server server(options);
  server.start();

  QueryRequest bad;
  bad.app = "nonsense";
  bad.small = true;
  {
    QueryClient client("127.0.0.1", server.port());
    const QueryResponse response = client.ask(bad);
    EXPECT_EQ(response.status, ResponseStatus::kError);
    EXPECT_NE(response.error.find("unknown app"), std::string::npos);
  }
  // The daemon survives a refused query; the next client is served.
  QueryRequest good;
  good.app = "matrixmul";
  good.small = true;
  EXPECT_EQ(query_once("127.0.0.1", server.port(), good).status,
            ResponseStatus::kOk);
  EXPECT_EQ(server.responses_sent(ResponseStatus::kError), 1);

  server.request_shutdown();
  server.wait();
}

TEST(ServeLoopbackTest, DeeplyNestedFrameAnswersErrorAndKeepsServing) {
  // A frame of one million '[' (inside the 1 MiB frame bound) once
  // overflowed the JSON parser's stack and killed the daemon. It must be
  // refused with an error frame, and the daemon must answer the next
  // request.
  ServeOptions options;
  options.workers = 2;
  Server server(options);
  server.start();
  {
    QueryClient client("127.0.0.1", server.port());
    ASSERT_TRUE(write_all(client.fd(), std::string(1'000'000, '[') + "\n"));
    FrameReader reader(client.fd());
    std::string frame;
    ASSERT_EQ(reader.read(frame), FrameReader::Result::kFrame);
    const QueryResponse response =
        QueryResponse::from_json(json::Value::parse(frame));
    EXPECT_EQ(response.status, ResponseStatus::kError);
    EXPECT_NE(response.error.find("nesting"), std::string::npos)
        << response.error;
  }
  QueryRequest good;
  good.app = "matrixmul";
  good.small = true;
  EXPECT_EQ(query_once("127.0.0.1", server.port(), good).status,
            ResponseStatus::kOk);
  EXPECT_EQ(server.responses_sent(ResponseStatus::kError), 1);

  server.request_shutdown();
  server.wait();
}

TEST(ServeLoopbackTest, OverloadAnswersAreWellFormedAndBounded) {
  // One worker wedged on an idle connection + a one-slot queue: every
  // further connection must get an explicit overload frame with the
  // configured backoff hint, and the queue depth must never exceed its
  // bound.
  ServeOptions options;
  options.workers = 1;
  options.max_queue = 1;
  options.retry_after_ms = 33.0;
  Server server(options);
  server.start();

  // Wait until the worker actually popped the wedge connection. Keying on
  // admitted() distinguishes "acceptor has not pushed yet" (depth also 0)
  // from "worker holds it" — mistaking the former lets the wedge occupy
  // the queue slot and a later client get admitted instead of rejected.
  QueryClient wedge("127.0.0.1", server.port());  // worker blocks on this
  for (int spin = 0; spin < 500; ++spin) {
    if (server.queue().admitted() >= 1 && server.queue().depth() == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(server.queue().admitted(), 1);
  ASSERT_EQ(server.queue().depth(), 0u) << "worker never took the wedge";

  QueryClient queued("127.0.0.1", server.port());  // fills the single slot
  for (int spin = 0; spin < 500 && server.queue().admitted() < 2; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(server.queue().admitted(), 2);
  ASSERT_EQ(server.queue().depth(), 1u) << "slot is not occupied";

  constexpr int kRejected = 4;
  for (int i = 0; i < kRejected; ++i) {
    QueryClient rejected("127.0.0.1", server.port());
    FrameReader reader(rejected.fd());
    std::string frame;
    ASSERT_EQ(reader.read(frame), FrameReader::Result::kFrame);
    const QueryResponse response =
        QueryResponse::from_json(json::Value::parse(frame));
    EXPECT_EQ(response.status, ResponseStatus::kOverload);
    EXPECT_DOUBLE_EQ(response.retry_after_ms, 33.0);
    EXPECT_FALSE(response.error.empty());
    // The daemon closes an overloaded connection after the frame.
    EXPECT_EQ(reader.read(frame), FrameReader::Result::kClosed);
  }

  EXPECT_GE(server.queue().rejected(), kRejected);
  EXPECT_LE(server.queue().max_depth_seen(), server.queue().capacity());
  EXPECT_EQ(server.responses_sent(ResponseStatus::kOverload), kRejected);

  // Shutdown drains: the wedged worker gives up at the next idle timeout
  // and wait() returns even though two connections never spoke.
  server.request_shutdown();
  server.wait();
}

TEST(ServeLoopbackTest, ShutdownFrameDrainsAndFlushesToDisk) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "serve_loopback_flush_test";
  fs::remove_all(dir);

  QueryRequest request;
  request.app = "stream-loop";
  request.small = true;

  std::string first_output;
  {
    ServeOptions options;
    options.workers = 2;
    options.cache_dir = (dir / "store").string();
    Server server(options);
    server.start();

    QueryClient client("127.0.0.1", server.port());
    const QueryResponse response = client.ask(request);
    ASSERT_EQ(response.status, ResponseStatus::kOk);
    EXPECT_FALSE(response.cache_hit);
    first_output = response.output;

    QueryRequest shutdown;
    shutdown.op = "shutdown";
    const QueryResponse ack = client.ask(shutdown);
    EXPECT_EQ(ack.status, ResponseStatus::kOk);
    EXPECT_TRUE(server.shutdown_requested());
    server.wait();
    EXPECT_EQ(server.cache().counters().flushed, 1);
  }

  // A restarted daemon over the same store answers from disk: a cache hit
  // with the same bytes, before any in-memory entry exists.
  ServeOptions options;
  options.workers = 2;
  options.cache_dir = (dir / "store").string();
  Server server(options);
  server.start();
  const QueryResponse warm = query_once("127.0.0.1", server.port(), request);
  ASSERT_EQ(warm.status, ResponseStatus::kOk);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.output, first_output);
  server.request_shutdown();
  server.wait();
  fs::remove_all(dir);
}

TEST(ServeLoopbackTest, DestructorAloneShutsDownCleanly) {
  // A Server going out of scope without an explicit shutdown must not hang
  // or crash — the destructor is request_shutdown() + wait().
  ServeOptions options;
  options.workers = 2;
  Server server(options);
  server.start();
  QueryRequest request;
  request.app = "blackscholes";
  request.small = true;
  EXPECT_EQ(query_once("127.0.0.1", server.port(), request).status,
            ResponseStatus::kOk);
}

}  // namespace
}  // namespace hetsched::serve
