// Unit tests of the benchmark's own code: seeded generators, their
// statistics, the metric catalogue, and the span recorder.

#include <gtest/gtest.h>

#include <cmath>
#include <regex>
#include <set>
#include <string>
#include <thread>

#include "metrics.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

std::string frame_stream(std::uint64_t seed) {
  const auto keys = serve_keys(seed);
  const FramePhase phase = frame_phase(seed, 0, 1000.0, 2.0, keys.size(), 1.0);
  std::string text = phase_frames(phase, keys);
  for (double at : phase.at) text += std::to_string(at) + "\n";
  return text;
}

TEST(Workload, SameSeedGivesByteIdenticalPopulations) {
  for (int pass = 0; pass < 3; ++pass) {
    EXPECT_EQ(pass_text(mixed_pass(7, pass)), pass_text(mixed_pass(7, pass)));
    EXPECT_EQ(pass_text(finegrain_pass(7, pass)),
              pass_text(finegrain_pass(7, pass)));
  }
  EXPECT_EQ(frame_stream(7), frame_stream(7));
}

TEST(Workload, DifferentSeedsGiveDifferentPopulations) {
  EXPECT_NE(pass_text(mixed_pass(7, 0)), pass_text(mixed_pass(8, 0)));
  EXPECT_NE(pass_text(finegrain_pass(7, 0)), pass_text(finegrain_pass(8, 0)));
  EXPECT_NE(pass_text(mixed_pass(7, 0)), pass_text(mixed_pass(7, 1)));
  EXPECT_NE(frame_stream(7), frame_stream(8));
}

TEST(Workload, PassesHoldDistinctScenariosAndHalfArePrefilled) {
  const SweepPass pass = mixed_pass(3, 0);
  std::set<std::string> keys;
  std::size_t prefilled = 0;
  for (std::size_t i = 0; i < pass.scenarios.size(); ++i) {
    keys.insert(pass.scenarios[i].to_json().dump());
    prefilled += pass.prefilled[i];
  }
  EXPECT_EQ(keys.size(), pass.scenarios.size());
  EXPECT_EQ(prefilled, pass.scenarios.size() / 2);
  for (const auto& scenario : finegrain_pass(3, 0).scenarios) {
    EXPECT_GE(scenario.task_count, 384);
    EXPECT_LE(scenario.task_count, 1536);
  }
}

TEST(Workload, ServeKeysCoverTheWholePopulationOnce) {
  const auto keys = serve_keys(5);
  std::set<std::string> distinct;
  for (const auto& key : keys) distinct.insert(key.cache_key());
  EXPECT_EQ(keys.size(), 3u * 10u * 6u * 2u * 3u);
  EXPECT_EQ(distinct.size(), keys.size());
}

TEST(Generators, ZipfFrequenciesMatchTheDistribution) {
  const ZipfSampler zipf(1080, 1.0);
  Rng rng(11);
  constexpr int kDraws = 400'000;
  std::vector<int> counts(1080, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t rank : {0u, 1u, 4u, 19u, 99u}) {
    const double expected = zipf.probability(rank) * kDraws;
    // Within four standard deviations of the binomial count.
    EXPECT_NEAR(counts[rank], expected, 4.0 * std::sqrt(expected))
        << "rank " << rank;
  }
  EXPECT_NEAR(zipf.probability(0) / zipf.probability(9), 10.0, 1e-9);
}

TEST(Generators, PoissonArrivalsHaveTheRateAndExponentialGaps) {
  Rng rng(3);
  const double rate = 2000.0, seconds = 50.0;
  const std::vector<double> at = poisson_arrivals(rng, rate, seconds);
  const double expected = rate * seconds;
  EXPECT_NEAR(static_cast<double>(at.size()), expected,
              4.0 * std::sqrt(expected));
  std::vector<double> gaps;
  for (std::size_t i = 1; i < at.size(); ++i) {
    ASSERT_GT(at[i], at[i - 1]);
    gaps.push_back(at[i] - at[i - 1]);
  }
  const double mean = sum(gaps) / static_cast<double>(gaps.size());
  double variance = 0.0;
  for (double gap : gaps) variance += (gap - mean) * (gap - mean);
  variance /= static_cast<double>(gaps.size());
  EXPECT_NEAR(mean * rate, 1.0, 0.02);
  // Exponential gaps: coefficient of variation 1, median ln 2 / rate.
  EXPECT_NEAR(std::sqrt(variance) / mean, 1.0, 0.02);
  EXPECT_NEAR(median(gaps) * rate, std::log(2.0), 0.02);
}

TEST(Metrics, NamesAreWellFormedAndUnique) {
  const std::regex pattern("[A-Za-z0-9_.-]+");
  std::set<std::string> names;
  for (const MetricSpec& spec : kEndToEnd) {
    EXPECT_TRUE(std::regex_match(spec.name, pattern)) << spec.name;
    EXPECT_TRUE(names.insert(spec.name).second) << spec.name;
  }
  for (const MetricSpec& spec : kPerLayer) {
    EXPECT_TRUE(std::regex_match(spec.name, pattern)) << spec.name;
    EXPECT_TRUE(names.insert(spec.name).second) << spec.name;
  }
}

TEST(Spans, NestedScopesOnTwoThreadsAreWellFormed) {
  SpanRecorder recorder;
  const auto work = [&recorder](std::uint64_t unit) {
    for (int i = 0; i < 50; ++i) {
      SpanRecorder::Scope root(&recorder, "root", unit * 100 + i);
      {
        SpanRecorder::Scope child(&recorder, "child");
        SpanRecorder::Scope grandchild(&recorder, "grandchild");
      }
      SpanRecorder::Scope sibling(&recorder, "sibling");
    }
  };
  std::thread first(work, 1), second(work, 2);
  first.join();
  second.join();
  const std::int64_t start = now_ns();
  recorder.add("async", 7, start, start + 10);
  const std::vector<Span> spans = recorder.collect();
  ASSERT_EQ(spans.size(), 2u * 50u * 4u + 1u);
  EXPECT_TRUE(validate_spans(spans).empty());
  std::map<std::uint64_t, const Span*> by_id;
  for (const Span& span : spans) by_id[span.id] = &span;
  for (const Span& span : spans) {
    EXPECT_GE(span.end_ns, span.start_ns);
    if (span.name == "root" || span.name == "async") {
      EXPECT_EQ(span.parent, 0u);
      continue;
    }
    const Span& parent = *by_id.at(span.parent);
    EXPECT_GE(span.start_ns, parent.start_ns);
    EXPECT_LE(span.end_ns, parent.end_ns);
    EXPECT_EQ(span.unit, parent.unit);
    EXPECT_EQ(span.name == "grandchild", parent.name == "child");
  }
  for (const auto& [id, self] : self_times(spans)) EXPECT_GE(self, 0) << id;
}

TEST(Spans, ValidationCatchesMalformedSets) {
  Span open;
  open.id = 1;
  open.name = "open";
  open.start_ns = 10;  // end_ns stays -1
  EXPECT_FALSE(validate_spans({open}).empty());

  Span parent;
  parent.id = 1;
  parent.name = "parent";
  parent.start_ns = 10;
  parent.end_ns = 20;
  Span child = parent;
  child.id = 2;
  child.parent = 1;
  child.name = "child";
  child.end_ns = 30;  // escapes its parent
  EXPECT_FALSE(validate_spans({parent, child}).empty());

  child.end_ns = 20;
  Span orphan = child;
  orphan.id = 3;
  orphan.parent = 99;
  EXPECT_TRUE(validate_spans({parent, child}).empty());
  EXPECT_FALSE(validate_spans({parent, child, orphan}).empty());

  // Two children overlapping more than the parent's span: negative self.
  Span twin = child;
  twin.id = 4;
  EXPECT_FALSE(validate_spans({parent, child, twin}).empty());
}

TEST(Stats, QuantilesInterpolateRawSamples) {
  std::vector<double> samples = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(samples, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(samples, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(samples, 1.0), 4.0);
  std::vector<double> empty;
  EXPECT_EQ(quantile(empty, 0.5), 0.0);
}

}  // namespace
}  // namespace perfbench
