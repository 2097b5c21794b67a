// Tests of the benchmark's own machinery: the load schedule is a pure
// function of the seed, the output checks reject a single flipped result
// bit, and span self-time arithmetic is right.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "schedule.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace spnbench {
namespace {

TEST(Schedule, SameSeedSameDueTimes) {
  EXPECT_EQ(poisson_due_times(7, 5000.0, 1000),
            poisson_due_times(7, 5000.0, 1000));
  EXPECT_NE(poisson_due_times(7, 5000.0, 1000),
            poisson_due_times(8, 5000.0, 1000));
}

TEST(Schedule, DueTimesAreOrderedAtTheRequestedRate) {
  const auto due = poisson_due_times(3, 10000.0, 20000);
  for (std::size_t i = 1; i < due.size(); ++i) EXPECT_GE(due[i], due[i - 1]);
  // 20k exponential gaps of mean 100 us: the mean is within 3%.
  const double mean_gap_ns =
      static_cast<double>(due.back()) / static_cast<double>(due.size());
  EXPECT_NEAR(mean_gap_ns, 100'000.0, 3'000.0);
}

TEST(Schedule, LongerScheduleExtendsShorterOne) {
  const auto short_run = poisson_due_times(11, 2500.0, 100);
  const auto long_run = poisson_due_times(11, 2500.0, 1000);
  EXPECT_TRUE(std::equal(short_run.begin(), short_run.end(), long_run.begin()));
}

TEST(Schedule, BatchTraceIsSeededWithExactTotal) {
  const auto a = batch_request_sizes(5, 24, 8192);
  EXPECT_EQ(a, batch_request_sizes(5, 24, 8192));
  EXPECT_NE(a, batch_request_sizes(6, 24, 8192));
  EXPECT_EQ(a.size(), 24u);
  EXPECT_EQ(std::accumulate(a.begin(), a.end(), std::size_t{0}), 24u * 8192u);
  for (const auto size : a) EXPECT_GT(size, 0u);
}

TEST(Schedule, DerivedSeedsDiffer) {
  EXPECT_NE(derive_seed(1, 1), derive_seed(1, 2));
  EXPECT_NE(derive_seed(1, 1), derive_seed(2, 1));
  EXPECT_EQ(derive_seed(9, 3), derive_seed(9, 3));
}

TEST(Stats, WeightedPercentileCountsEachValueByItsWeight) {
  const std::vector<double> values = {30.0, 10.0, 20.0};
  const std::vector<double> weights = {1.0, 1.0, 8.0};
  EXPECT_EQ(weighted_percentile(values, weights, 5.0), 10.0);
  EXPECT_EQ(weighted_percentile(values, weights, 50.0), 20.0);
  EXPECT_EQ(weighted_percentile(values, weights, 95.0), 30.0);
  EXPECT_EQ(weighted_percentile({}, {}, 50.0), 0.0);
}

double flip(double value, int bit) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(value) ^
                               (std::uint64_t{1} << bit));
}

TEST(Checks, BitExactCheckRejectsAnySingleFlippedBit) {
  const std::vector<double> expected = {0.125, 3.5e-12, 0.75};
  EXPECT_EQ(count_bit_mismatches(expected, expected), 0u);
  for (int bit = 0; bit < 64; ++bit) {
    std::vector<double> got = expected;
    got[1] = flip(got[1], bit);
    EXPECT_EQ(count_bit_mismatches(got, expected), 1u) << "bit " << bit;
  }
}

TEST(Checks, DigestChangesWithAnySingleFlippedBit) {
  const std::vector<double> results = {0.5, 1e-30, 0.25, 7e-3};
  const std::uint64_t reference = digest(results);
  for (std::size_t i = 0; i < results.size(); ++i) {
    for (int bit = 0; bit < 64; ++bit) {
      std::vector<double> got = results;
      got[i] = flip(got[i], bit);
      EXPECT_NE(digest(got), reference) << "value " << i << " bit " << bit;
    }
  }
}

TEST(Checks, MissingOrExtraResultsCount) {
  const std::vector<double> expected = {1.0, 2.0, 3.0};
  const std::vector<double> shorter = {1.0, 2.0};
  EXPECT_EQ(count_bit_mismatches(shorter, expected), 1u);
  EXPECT_EQ(count_out_of_tolerance(shorter, expected, 1e-6), 1u);
}

TEST(Checks, ToleranceCheckRejectsZeroNonFiniteAndFlippedHighBits) {
  const double reference = 3.0e-20;
  EXPECT_TRUE(within_tolerance(reference * (1 + 1e-7), reference, 1e-6));
  EXPECT_FALSE(within_tolerance(0.0, reference, 1e-6));
  EXPECT_FALSE(within_tolerance(std::numeric_limits<double>::quiet_NaN(),
                                reference, 1e-6));
  EXPECT_FALSE(within_tolerance(std::numeric_limits<double>::infinity(),
                                reference, 1e-6));
  // Any flipped exponent or sign bit, and the top mantissa bits, move the
  // value far outside a CFP tolerance.
  for (int bit = 40; bit < 64; ++bit) {
    EXPECT_FALSE(within_tolerance(flip(reference, bit), reference, 1e-6))
        << "bit " << bit;
  }
}

TEST(Checks, BooksBalanceOnlyWhenEveryRequestIsAnswered) {
  EXPECT_TRUE((Books{10, 7, 3}).balanced());
  EXPECT_FALSE((Books{10, 7, 2}).balanced());
}

TEST(Spans, SelfTimeSubtractsTheUnionOfClippedChildren) {
  // Parent [0, 100]; children [10, 30] and [20, 50] overlap (union 40),
  // [90, 120] sticks out past the parent (10 counted).
  const std::vector<Span> spans = {
      {1, 0, 1, "parent", 0, 100},
      {2, 1, 1, "child", 10, 30},
      {3, 1, 1, "child", 20, 50},
      {4, 1, 1, "child", 90, 120},
  };
  const auto self = self_times_ns(spans);
  ASSERT_EQ(self.size(), 4u);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
}

TEST(Spans, NestedLayersAddUpToTheRootDuration) {
  // client [0, 1000] > service [100, 900] > engine [300, 500].
  const std::vector<Span> spans = {
      {1, 0, 7, "client.request", 0, 1000},
      {2, 1, 7, "service.request", 100, 900},
      {3, 2, 7, "engine.batch", 300, 500},
  };
  const auto layers = layer_times(spans);
  EXPECT_EQ(layers.at("client.request").self_ns, 200);
  EXPECT_EQ(layers.at("service.request").self_ns, 600);
  EXPECT_EQ(layers.at("engine.batch").self_ns, 200);
  std::int64_t sum = 0;
  for (const auto& [name, layer] : layers) sum += layer.self_ns;
  EXPECT_EQ(sum, 1000);
  EXPECT_DOUBLE_EQ(layers.at("service.request").mean_self_us(), 0.6);
}

TEST(Spans, LinksSetParentsAndPropagateRequestIds) {
  std::vector<Span> spans = {
      {10, 0, 3, "client.request", 0, 100},
      {11, 0, 0, "service.request", 10, 90},
      {12, 11, 0, "engine.batch", 20, 40},
  };
  apply_links(spans, {{11, {10, 3}}});
  EXPECT_EQ(spans[1].parent, 10u);
  EXPECT_EQ(spans[1].request, 3u);
  EXPECT_EQ(spans[2].request, 3u);
  EXPECT_EQ(self_times_ns(spans)[0], 20);
}

TEST(Spans, RecorderKeepsEverySpanFromManyThreads) {
  SpanRecorder recorder;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&recorder] {
      for (int i = 0; i < 1000; ++i) {
        recorder.record({recorder.next_id(), 0, 0, "x", i, i + 1});
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto spans = recorder.spans();
  ASSERT_EQ(spans.size(), 4000u);
  std::vector<std::uint64_t> ids;
  for (const auto& span : spans) ids.push_back(span.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  EXPECT_NE(ids.front(), 0u);
}

}  // namespace
}  // namespace spnbench
