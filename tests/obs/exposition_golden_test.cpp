#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hpp"

/// Golden exposition tests: the Prometheus/OpenMetrics text the daemon
/// serves is pinned byte-exactly, including the exemplar suffixes that link
/// latency buckets to request trace ids. A format drift here breaks every
/// scraper, so the whole block is one string comparison, not substring
/// probes.
namespace hetsched::obs {
namespace {

TEST(ExpositionGolden, HistogramWithExemplarsPinnedByteExact) {
  MetricsRegistry registry;
  registry.enable();
  registry.histogram_bounds("serve_request_latency_ms", {1.0, 10.0});
  registry.observe("serve_request_latency_ms", 0.5, 1.0, "aaaa111122223333");
  registry.observe("serve_request_latency_ms", 42.0, 1.0,
                   "bbbb444455556666");
  registry.counter_add("serve_requests_total", 2);

  EXPECT_EQ(registry.to_prometheus(),
            "# TYPE hs_serve_requests_total counter\n"
            "hs_serve_requests_total 2\n"
            "# TYPE hs_serve_request_latency_ms histogram\n"
            "hs_serve_request_latency_ms_bucket{le=\"1\"} 1"
            " # {trace_id=\"aaaa111122223333\"} 0.5\n"
            "hs_serve_request_latency_ms_bucket{le=\"10\"} 1\n"
            "hs_serve_request_latency_ms_bucket{le=\"+Inf\"} 2"
            " # {trace_id=\"bbbb444455556666\"} 42\n"
            "hs_serve_request_latency_ms_sum 42.5\n"
            "hs_serve_request_latency_ms_count 2\n");
}

TEST(ExpositionGolden, UntracedObservationsKeepThePreExemplarFormat) {
  // Byte-compatibility contract: a registry that never saw a traced
  // observation exposes exactly the old bucket lines — no suffix, ever.
  MetricsRegistry registry;
  registry.enable();
  registry.histogram_bounds("latency_ms", {1.0});
  registry.observe("latency_ms", 0.5);
  registry.observe("latency_ms", 2.0);
  EXPECT_EQ(registry.to_prometheus(),
            "# TYPE hs_latency_ms histogram\n"
            "hs_latency_ms_bucket{le=\"1\"} 1\n"
            "hs_latency_ms_bucket{le=\"+Inf\"} 2\n"
            "hs_latency_ms_sum 2.5\n"
            "hs_latency_ms_count 2\n");
}

TEST(ExpositionGolden, ExemplarIsLastWriterWinsPerBucket) {
  Histogram hist({10.0});
  hist.observe(1.0, 1.0, "first___________");
  hist.observe(2.0, 1.0, "second__________");
  hist.observe(3.0);  // untraced: must not clobber the exemplar
  ASSERT_TRUE(hist.has_exemplars());
  const Histogram::Exemplar& ex = hist.exemplars()[0];
  EXPECT_TRUE(ex.valid);
  EXPECT_EQ(ex.trace_id, "second__________");
  EXPECT_DOUBLE_EQ(ex.value, 2.0);
  EXPECT_FALSE(hist.exemplars()[1].valid) << "overflow bucket untouched";
}

TEST(ExpositionGolden, JsonGrowsExemplarsMemberOnlyWhenTraced) {
  MetricsRegistry untraced;
  untraced.enable();
  untraced.histogram_bounds("h", {1.0});
  untraced.observe("h", 0.5);
  EXPECT_EQ(untraced.to_json_string().find("exemplars"), std::string::npos);

  MetricsRegistry traced;
  traced.enable();
  traced.histogram_bounds("h", {1.0});
  traced.observe("h", 0.5, 1.0, "cafe000000000001");
  const std::string dumped = traced.to_json_string();
  EXPECT_NE(dumped.find("\"exemplars\""), std::string::npos);
  EXPECT_NE(dumped.find("cafe000000000001"), std::string::npos);
}

}  // namespace
}  // namespace hetsched::obs
