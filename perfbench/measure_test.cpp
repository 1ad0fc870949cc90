// Tests of the benchmark's own arithmetic.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "measure.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, ReportsP99WhenTenSamplesLieBeyondIt) {
  const Percentile p = tail_percentile(one_to(1000));
  EXPECT_EQ(p.pct, 99.0);
  EXPECT_EQ(p.value, 990.0);  // 10 samples (991..1000) beyond it
  EXPECT_EQ(p.samples, 1000u);
}

TEST(Percentile, LowersToTheHighestWithTenSamplesBeyond) {
  const Percentile p = tail_percentile(one_to(100));
  EXPECT_EQ(p.value, 90.0);  // p99 would be 99 with one sample beyond
  EXPECT_DOUBLE_EQ(p.pct, 90.0);
  EXPECT_EQ(p.samples, 100u);

  const Percentile q = tail_percentile(one_to(64));
  EXPECT_EQ(q.value, 54.0);
  EXPECT_DOUBLE_EQ(q.pct, 100.0 * 54 / 64);
}

TEST(Percentile, TooFewSamplesReportNoPercentile) {
  const Percentile p = tail_percentile(one_to(10));
  EXPECT_EQ(p.pct, 0.0);
  EXPECT_EQ(p.value, 1.0);
  EXPECT_EQ(p.samples, 10u);
  EXPECT_EQ(tail_percentile({}).samples, 0u);
}

TEST(Median, MatchesPythonStatistics) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Ratio, CarriesItsBase) {
  EXPECT_EQ((Ratio{1, 2}).str(), "0.5 (1/2)");
  EXPECT_EQ((Ratio{500, 1000}).str(), "0.5 (500/1000)");
  EXPECT_EQ((Ratio{3, 0}).value(), 0.0);
  EXPECT_EQ((Ratio{3, 0}).str(), "0 (3/0)");
}

TEST(SelfTime, SubtractsChildCoverageOnce) {
  std::vector<Span> spans;
  spans.push_back({"parent", 0, 100, -1, 0});
  spans.push_back({"child", 10, 30, 0, 0});
  spans.push_back({"child", 20, 50, 0, 0});   // overlaps the first child
  spans.push_back({"child", 80, 120, 0, 0});  // runs past the parent
  spans.push_back({"grandchild", 12, 18, 1, 0});
  const auto self = self_times_ns(spans);
  // Children cover [10, 50) and [80, 100) of the parent: 60 of 100 ns.
  EXPECT_EQ(self.at("parent"), 40.0);
  // Child spans: 20 - 6 (grandchild) + 30 + 40.
  EXPECT_EQ(self.at("child"), 84.0);
  EXPECT_EQ(self.at("grandchild"), 6.0);
}

TEST(SelfTime, IgnoresSpansNeverClosed) {
  const auto self = self_times_ns({{"open", 50, -1, -1, 0}});
  EXPECT_EQ(self.count("open"), 0u);
}

TEST(SpanLog, DisabledRecordsNothing) {
  SpanLog log(false);
  EXPECT_EQ(log.add("x", 0, 1, -1, 0), -1);
  EXPECT_EQ(log.open("y", -1, 0), -1);
  log.close(-1);
  EXPECT_TRUE(log.spans().empty());
}

TEST(OpenLoop, StallInflatesTheOperationsQueuedBehindIt) {
  using namespace std::chrono_literals;
  const std::vector<double> due = {0, 5, 10, 15};
  const auto stall_first = [](std::size_t i, unsigned) {
    if (i == 0) std::this_thread::sleep_for(60ms);
  };
  const std::vector<OpTiming> one = run_open_loop(due, 1, stall_first);
  // Each later op waited for the stalled one; latency counts from its due
  // time, not from when it finally went out.
  EXPECT_GE(one[0].latency_ms(), 60.0);
  EXPECT_GE(one[1].lag_ms(), 50.0);
  EXPECT_GE(one[1].latency_ms(), 55.0 - 1.0);
  EXPECT_GE(one[3].latency_ms(), 45.0 - 1.0);
  EXPECT_LT(one[1].end_ms - one[1].start_ms, 20.0);

  // With a second connection the later ops go out on schedule.
  const std::vector<OpTiming> two = run_open_loop(due, 2, stall_first);
  EXPECT_LT(two[1].latency_ms(), 30.0);
  EXPECT_LT(two[3].lag_ms(), 30.0);
}

}  // namespace
}  // namespace perfbench
