#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace hetsched::obs {
namespace {

TEST(MetricKey, BareNameWhenNoLabels) {
  EXPECT_EQ(metric_key("makespan_ms", {}), "makespan_ms");
}

TEST(MetricKey, SortsLabelsByKey) {
  EXPECT_EQ(metric_key("queue_depth", {{"device", "gpu0"}}),
            "queue_depth{device=gpu0}");
  // Call-site label order must not matter.
  EXPECT_EQ(metric_key("ema", {{"kernel", "mm"}, {"device", "gpu0"}}),
            metric_key("ema", {{"device", "gpu0"}, {"kernel", "mm"}}));
  EXPECT_EQ(metric_key("ema", {{"kernel", "mm"}, {"device", "gpu0"}}),
            "ema{device=gpu0,kernel=mm}");
}

TEST(HistogramTest, BucketArithmetic) {
  Histogram hist({1.0, 2.0, 4.0});
  hist.observe(0.5);  // bucket 0
  hist.observe(1.0);  // le semantics: still bucket 0
  hist.observe(1.5);  // bucket 1
  hist.observe(4.0);  // bucket 2
  hist.observe(9.0);  // overflow
  ASSERT_EQ(hist.weights().size(), 4u);
  EXPECT_DOUBLE_EQ(hist.weights()[0], 2.0);
  EXPECT_DOUBLE_EQ(hist.weights()[1], 1.0);
  EXPECT_DOUBLE_EQ(hist.weights()[2], 1.0);
  EXPECT_DOUBLE_EQ(hist.weights()[3], 1.0);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 9.0);
  EXPECT_DOUBLE_EQ(hist.total_weight(), 5.0);
}

TEST(HistogramTest, WeightedObservations) {
  Histogram hist({10.0});
  hist.observe(3.0, 2.5);
  hist.observe(20.0, 0.5);
  EXPECT_DOUBLE_EQ(hist.weights()[0], 2.5);
  EXPECT_DOUBLE_EQ(hist.weights()[1], 0.5);
  EXPECT_DOUBLE_EQ(hist.sum(), 3.0 * 2.5 + 20.0 * 0.5);
  EXPECT_DOUBLE_EQ(hist.total_weight(), 3.0);
}

TEST(HistogramTest, DefaultBoundsAreExponential) {
  const std::vector<double> bounds = Histogram::default_bounds();
  ASSERT_EQ(bounds.size(), 12u);
  EXPECT_DOUBLE_EQ(bounds.front(), 0.01);
  for (std::size_t i = 1; i < bounds.size(); ++i)
    EXPECT_DOUBLE_EQ(bounds[i], bounds[i - 1] * 4.0);
}

TEST(CounterTrackTest, IntegratesDeltasAndAbsolutes) {
  CounterTrack track;
  track.add(10, 1.0);
  track.add(30, -1.0);
  track.add(20, 2.0);    // out of order: series() sorts
  track.set(40, 7.0);    // absolute overrides the running value
  const auto series = track.series();
  ASSERT_EQ(series.size(), 4u);
  EXPECT_EQ(series[0].time, 10);
  EXPECT_DOUBLE_EQ(series[0].value, 1.0);
  EXPECT_EQ(series[1].time, 20);
  EXPECT_DOUBLE_EQ(series[1].value, 3.0);
  EXPECT_EQ(series[2].time, 30);
  EXPECT_DOUBLE_EQ(series[2].value, 2.0);
  EXPECT_EQ(series[3].time, 40);
  EXPECT_DOUBLE_EQ(series[3].value, 7.0);
}

TEST(CounterTrackTest, OneSamplePerDistinctTimestamp) {
  CounterTrack track;
  track.add(5, 1.0);
  track.add(5, 1.0);
  track.add(5, -3.0);
  const auto series = track.series();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].time, 5);
  EXPECT_DOUBLE_EQ(series[0].value, -1.0);
}

TEST(MetricsRegistryTest, DisabledMutationsAreNoops) {
  MetricsRegistry registry;  // disabled by default
  registry.counter_add("c");
  registry.gauge_set("g", 1.0);
  registry.observe("h", 1.0);
  registry.track_add("t", 0, 1.0);
  EXPECT_TRUE(registry.counters().empty());
  EXPECT_TRUE(registry.gauges().empty());
  EXPECT_TRUE(registry.histograms().empty());
  EXPECT_TRUE(registry.tracks().empty());
  EXPECT_EQ(registry.counter("c"), 0);
}

MetricsRegistry sample_registry(bool reorder) {
  MetricsRegistry registry;
  registry.enable();
  if (reorder) {
    registry.gauge_set("makespan_ms", 12.5);
    registry.counter_add("chunks{device=gpu0}", 3);
    registry.track_add("depth", 10, 1.0);
    registry.counter_add("chunks{device=cpu}", 2);
  } else {
    registry.counter_add("chunks{device=cpu}", 2);
    registry.counter_add("chunks{device=gpu0}", 3);
    registry.gauge_set("makespan_ms", 12.5);
    registry.track_add("depth", 10, 1.0);
  }
  registry.histogram_bounds("compute_ms", {1.0, 10.0});
  registry.observe("compute_ms", 0.5, 2.0);
  return registry;
}

TEST(MetricsRegistryTest, JsonIsByteStableAcrossInsertionOrder) {
  const std::string a = sample_registry(false).to_json_string();
  const std::string b = sample_registry(true).to_json_string();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"counters\""), std::string::npos);
  EXPECT_NE(a.find("\"tracks\""), std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusExposition) {
  const std::string text = sample_registry(false).to_prometheus();
  EXPECT_NE(text.find("# TYPE hs_chunks counter\n"), std::string::npos);
  EXPECT_NE(text.find("hs_chunks{device=\"gpu0\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hs_makespan_ms gauge\n"), std::string::npos);
  // The track exposes its last value as a gauge.
  EXPECT_NE(text.find("hs_depth 1\n"), std::string::npos);
  // Histogram buckets are cumulative and end with +Inf / _sum / _count.
  EXPECT_NE(text.find("hs_compute_ms_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("hs_compute_ms_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("hs_compute_ms_sum 1\n"), std::string::npos);
  EXPECT_NE(text.find("hs_compute_ms_count 2\n"), std::string::npos);
}

TEST(MetricsRegistryTest, ValidateCatchesViolations) {
  MetricsRegistry registry;
  registry.enable();
  EXPECT_TRUE(registry.validate().empty());
  registry.counter_add("ok", 1);
  registry.counter_add("broken", -4);
  registry.counter_add("mal{formed", 1);
  registry.track_add("t", -5, 1.0);
  const std::vector<std::string> problems = registry.validate();
  ASSERT_EQ(problems.size(), 3u);
}

TEST(ObserveTimeWeightedTest, WeightsValuesByDwellTime) {
  MetricsRegistry registry;
  registry.enable();
  registry.histogram_bounds("depth_ms", {1.0, 3.0});
  // Depth 1 for [0, 1ms), depth 3 for [1ms, 2ms).
  std::vector<CounterTrack::Sample> series = {{0, 1.0}, {1'000'000, 3.0}};
  observe_time_weighted(registry, "depth_ms", series, 2'000'000);
  ASSERT_EQ(registry.histograms().count("depth_ms"), 1u);
  const Histogram& hist = registry.histograms().at("depth_ms");
  EXPECT_DOUBLE_EQ(hist.weights()[0], 1.0);  // value 1, 1 ms
  EXPECT_DOUBLE_EQ(hist.weights()[1], 1.0);  // value 3, 1 ms
  EXPECT_DOUBLE_EQ(hist.total_weight(), 2.0);
  EXPECT_DOUBLE_EQ(hist.sum(), 1.0 * 1.0 + 3.0 * 1.0);
}

TEST(ObserveTimeWeightedTest, HorizonClampsTheLastSegment) {
  MetricsRegistry registry;
  registry.enable();
  std::vector<CounterTrack::Sample> series = {{0, 2.0}, {5'000'000, 4.0}};
  // Horizon before the second sample: only the first segment contributes,
  // clamped to [0, 3ms); the second starts past the horizon and is dropped.
  observe_time_weighted(registry, "h", series, 3'000'000);
  ASSERT_EQ(registry.histograms().count("h"), 1u);
  const Histogram& hist = registry.histograms().at("h");
  EXPECT_DOUBLE_EQ(hist.total_weight(), 3.0);
  EXPECT_DOUBLE_EQ(hist.sum(), 2.0 * 3.0);
}

}  // namespace
}  // namespace hetsched::obs
