// Self-tests of the benchmark's own helpers.

#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) {
    samples.push_back(1001 - i);  // 1000 .. 1, unsorted order
  }
  EXPECT_EQ(Quantile(samples, 0.50), 500.0);
  EXPECT_EQ(Quantile(samples, 0.99), 990.0);
  EXPECT_EQ(Quantile(samples, 1.0), 1000.0);
  EXPECT_EQ(Quantile(samples, 0.0), 1.0);
  std::vector<double> empty;
  EXPECT_EQ(Quantile(empty, 0.99), 0.0);
}

TEST(PercentileTest, TenSamplesBeyondP99NeedsAThousand) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9);
  EXPECT_EQ(SamplesBeyond(2000, 0.99), 20);
  EXPECT_EQ(SamplesBeyond(100, 0.5), 50);
  EXPECT_EQ(SamplesBeyond(0, 0.99), 0);

  EXPECT_LT(SamplesBeyond(999, 0.99), kMinSamplesBeyond);
  EXPECT_GE(SamplesBeyond(1000, 0.99), kMinSamplesBeyond);
  std::vector<double> samples(1000, 1.0);
  samples[0] = 5.0;
  const Percentiles p = Summarize(samples);
  EXPECT_EQ(p.count, 1000);
  EXPECT_EQ(p.p50, 1.0);
  EXPECT_EQ(p.p99, 1.0);  // one outlier stays beyond the p99
}

TEST(PercentileTest, Median) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.0);  // lower median (nearest rank)
}

TEST(ProbeScheduleTest, SameSeedRepeatsTheSameProbes) {
  // Every pass builds its schedule afresh, so a schedule from the same seed
  // must repeat the whole probe sequence.
  ProbeSchedule schedule(2000.0, 512, 42);
  ProbeSchedule again(2000.0, 512, 42);
  for (int i = 0; i < 5000; ++i) {
    const ProbeSchedule::Probe first = schedule.Next();
    const ProbeSchedule::Probe probe = again.Next();
    ASSERT_EQ(probe.due_ns, first.due_ns) << i;
    ASSERT_EQ(probe.machine, first.machine) << i;
  }
}

TEST(ProbeScheduleTest, FixedRateAndSeededMachines) {
  ProbeSchedule schedule(2000.0, 512, 7);
  EXPECT_EQ(schedule.Next().due_ns, 0);
  EXPECT_EQ(schedule.Next().due_ns, 500000);  // 2,000/s: one probe per 0.5 ms
  EXPECT_EQ(schedule.Next().due_ns, 1000000);

  ProbeSchedule a(2000.0, 512, 1);
  ProbeSchedule b(2000.0, 512, 2);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    same += a.Next().machine == b.Next().machine ? 1 : 0;
  }
  EXPECT_LT(same, 500);  // different seeds draw different sequences
}

TEST(ProbeScheduleTest, ZipfianIsSkewedAndInRange) {
  ProbeSchedule schedule(2000.0, 512, 3);
  std::map<int, int> counts;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    const int m = schedule.Next().machine;
    ASSERT_GE(m, 0);
    ASSERT_LT(m, 512);
    ++counts[m];
  }
  int hottest = 0;
  for (const auto& [machine, count] : counts) {
    hottest = std::max(hottest, count);
  }
  // Uniform would give ~195 per machine; theta 0.99 over 512 items puts
  // ~15% of draws on the hottest one.
  EXPECT_GT(hottest, draws / 20);
  EXPECT_GT(counts.size(), 100u);  // but the tail still reaches many machines
}

TEST(HistogramTest, QuantileAndSubtractFromSnapshotJson) {
  const std::string json =
      "{\n  \"events\": 1234,\n  \"ticks\": 56,\n"
      "  \"predict_latency_log2_ns\": [\n"
      "    {\"log2_ns\": 9, \"count\": 90, \"mean_ns\": 700.0},\n"
      "    {\"log2_ns\": 12, \"count\": 10, \"mean_ns\": 5000.0}\n  ],\n"
      "  \"net\": {\"ops\": [\n"
      "    {\"op\": \"ingest-batch\", \"count\": 3, \"latency_log2_ns\": "
      "[{\"log2_ns\": 20, \"count\": 3, \"mean\": 1500000.0}]},\n"
      "    {\"op\": \"admission-check\", \"count\": 4, \"latency_log2_ns\": "
      "[{\"log2_ns\": 14, \"count\": 4, \"mean\": 20000.0}]}\n  ]}\n}\n";
  EXPECT_EQ(ParseJsonInt(json, "events"), 1234);
  EXPECT_EQ(ParseJsonInt(json, "ticks"), 56);
  EXPECT_EQ(ParseJsonInt(json, "missing"), -1);

  const std::vector<Log2Bucket> predict = ParseLog2Histogram(json, "", "predict_latency_log2_ns");
  ASSERT_EQ(predict.size(), 2u);
  EXPECT_EQ(predict[1].log2, 12);
  EXPECT_EQ(HistogramCount(predict), 100);
  EXPECT_EQ(HistogramQuantile(predict, 0.5), 700.0);
  EXPECT_EQ(HistogramQuantile(predict, 0.95), 5000.0);

  const std::vector<Log2Bucket> admission =
      ParseLog2Histogram(json, "\"op\": \"admission-check\"", "latency_log2_ns");
  ASSERT_EQ(admission.size(), 1u);
  EXPECT_EQ(admission[0].log2, 14);
  EXPECT_EQ(admission[0].mean, 20000.0);

  const std::vector<Log2Bucket> before = {{14, 1, 8000.0}};
  const std::vector<Log2Bucket> delta = SubtractHistogram(admission, before);
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta[0].count, 3);
  EXPECT_DOUBLE_EQ(delta[0].mean, 24000.0);  // (4 * 20000 - 8000) / 3
}

TEST(OutputTest, MetricLineCarriesNameValueUnitAndSamples) {
  EXPECT_EQ(FormatMetricLine({"net.admission_p99_us", 6612.5, "us", 7000, "open loop"}),
            "metric net.admission_p99_us = 6612.5 us n=7000  # open loop");
  EXPECT_EQ(FormatMetricLine({"setup_s", 0.25, "s", -1, ""}), "metric setup_s = 0.25 s");
}

TEST(OutputTest, ResultJsonKeepsEveryDigit) {
  const double value = 3412345.678901234;
  const std::string json = FormatResultJson(
      true, 1000, 0, {{"throughput_per_s", value, "1/s", -1, ""}, {"setup_s", 0.1, "s", -1, ""}});
  EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {", 0),
            0u);
  const std::string key = "\"throughput_per_s\": {\"value\": ";
  const size_t at = json.find(key);
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(std::strtod(json.c_str() + at + key.size(), nullptr), value);
  EXPECT_NE(json.find("\"setup_s\": {\"value\": 0.10000000000000001, \"unit\": \"s\"}"),
            std::string::npos);
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(OutputTest, NonFiniteValuesBecomeNull) {
  const std::string json =
      FormatResultJson(false, 1, 1, {{"x", std::numeric_limits<double>::quiet_NaN(), "s", -1, ""}});
  EXPECT_NE(json.find("\"x\": {\"value\": null"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
