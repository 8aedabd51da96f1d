#include "crf/trace/workload_model.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "crf/stats/running_stats.h"
#include "crf/util/rng.h"

namespace crf {
namespace {

std::array<double, kSubSamplesPerInterval> StepOnce(TaskUsageModel& model,
                                                    double shared_load = 1.0) {
  std::array<double, kSubSamplesPerInterval> sub;
  model.Step(sub, shared_load);
  return sub;
}

TEST(TaskUsageModelTest, SamplesWithinBounds) {
  TaskUsageParams params;
  params.limit = 0.8;
  TaskUsageModel model(params, 0, Rng(1));
  for (int t = 0; t < 500; ++t) {
    for (const double s : StepOnce(model)) {
      ASSERT_GE(s, 0.0);
      ASSERT_LE(s, params.limit);
    }
  }
}

TEST(TaskUsageModelTest, DeterministicGivenSameRng) {
  TaskUsageParams params;
  TaskUsageModel a(params, 5, Rng(7));
  TaskUsageModel b(params, 5, Rng(7));
  for (int t = 0; t < 50; ++t) {
    EXPECT_EQ(StepOnce(a), StepOnce(b));
  }
}

TEST(TaskUsageModelTest, MeanTracksMeanRatio) {
  TaskUsageParams params;
  params.limit = 1.0;
  params.mean_ratio = 0.4;
  params.diurnal_amplitude = 0.0;
  params.spike_prob = 0.0;
  params.ar_sigma = 0.05;
  RunningStats stats;
  TaskUsageModel model(params, 0, Rng(11));
  for (int t = 0; t < 4000; ++t) {
    for (const double s : StepOnce(model)) {
      stats.Add(s);
    }
  }
  EXPECT_NEAR(stats.mean(), 0.4, 0.03);
}

TEST(TaskUsageModelTest, DiurnalWaveMovesUsage) {
  TaskUsageParams params;
  params.mean_ratio = 0.5;
  params.diurnal_amplitude = 0.4;
  params.phase_days = 0.0;
  params.ar_sigma = 0.01;
  params.spike_prob = 0.0;
  TaskUsageModel model(params, 0, Rng(13));
  RunningStats crest;   // Around t = day/4 (sine peak).
  RunningStats trough;  // Around t = 3*day/4.
  for (Interval t = 0; t < 2 * kIntervalsPerDay; ++t) {
    const auto sub = StepOnce(model);
    double mean = 0.0;
    for (const double s : sub) {
      mean += s;
    }
    mean /= sub.size();
    const Interval day_pos = t % kIntervalsPerDay;
    if (std::abs(day_pos - kIntervalsPerDay / 4) < 12) {
      crest.Add(mean);
    }
    if (std::abs(day_pos - 3 * kIntervalsPerDay / 4) < 12) {
      trough.Add(mean);
    }
  }
  EXPECT_GT(crest.mean(), trough.mean() + 0.2);
}

TEST(TaskUsageModelTest, SpikesReachSpikeLevel) {
  TaskUsageParams params;
  params.mean_ratio = 0.2;
  params.diurnal_amplitude = 0.0;
  params.ar_sigma = 0.02;
  params.spike_prob = 0.05;
  params.spike_level = 0.9;
  params.spike_duration = 2;
  TaskUsageModel model(params, 0, Rng(17));
  int high_intervals = 0;
  for (int t = 0; t < 2000; ++t) {
    const auto sub = StepOnce(model);
    double mean = 0.0;
    for (const double s : sub) {
      mean += s;
    }
    if (mean / sub.size() > 0.7) {
      ++high_intervals;
    }
  }
  // spike_prob 0.05 with duration 2 => roughly 10% of intervals spiking.
  EXPECT_GT(high_intervals, 50);
}

TEST(TaskUsageModelTest, NoSpikesWhenDisabled) {
  TaskUsageParams params;
  params.mean_ratio = 0.2;
  params.diurnal_amplitude = 0.0;
  params.ar_sigma = 0.02;
  params.spike_prob = 0.0;
  TaskUsageModel model(params, 0, Rng(19));
  for (int t = 0; t < 2000; ++t) {
    for (const double s : StepOnce(model)) {
      ASSERT_LT(s, 0.6);
    }
  }
}

TEST(TaskUsageModelTest, SharedLoadScalesCoupledTasks) {
  TaskUsageParams params;
  params.mean_ratio = 0.4;
  params.diurnal_amplitude = 0.0;
  params.ar_sigma = 0.01;
  params.spike_prob = 0.0;
  params.load_coupling = 1.0;
  TaskUsageModel low(params, 0, Rng(23));
  TaskUsageModel high(params, 0, Rng(23));
  RunningStats low_stats;
  RunningStats high_stats;
  for (int t = 0; t < 500; ++t) {
    for (const double s : StepOnce(low, 0.7)) {
      low_stats.Add(s);
    }
    for (const double s : StepOnce(high, 1.3)) {
      high_stats.Add(s);
    }
  }
  EXPECT_NEAR(high_stats.mean() / low_stats.mean(), 1.3 / 0.7, 0.1);
}

TEST(TaskUsageModelTest, UncoupledTasksIgnoreSharedLoad) {
  TaskUsageParams params;
  params.mean_ratio = 0.4;
  params.diurnal_amplitude = 0.0;
  params.ar_sigma = 0.01;
  params.spike_prob = 0.0;
  params.load_coupling = 0.0;
  TaskUsageModel a(params, 0, Rng(29));
  TaskUsageModel b(params, 0, Rng(29));
  for (int t = 0; t < 100; ++t) {
    EXPECT_EQ(StepOnce(a, 0.5), StepOnce(b, 2.0));
  }
}

using SubSamples = std::array<double, kSubSamplesPerInterval>;

// The selection-based p90 must equal the sorted ladder's p90 bit for bit.
void ExpectP90MatchesLadder(const SubSamples& sub) {
  EXPECT_EQ(std::bit_cast<uint32_t>(IntervalP90(sub)),
            std::bit_cast<uint32_t>(IntervalLadder(sub).p90));
}

// Ties around ranks 9..11 and samples clamped to 0 and to the limit (1.0),
// in several orders.
std::vector<SubSamples> EdgeInputs() {
  return {
      {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.3},
      {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.4, 0.3, 0.0},
      {1.0, 1.0, 1.0, 1.0, 0.2, 0.3, 1.0, 0.9, 1.0, 1.0, 1.0, 1.0},
      {0.2, 0.3, 0.1, 0.4, 0.2, 0.3, 0.5, 0.1, 0.6, 1.0, 0.9, 1.0},
      {0.7, 0.2, 0.7, 0.1, 0.7, 0.3, 0.7, 0.2, 0.4, 0.7, 0.0, 0.7},
      {0.8, 0.8, 0.1, 0.2, 0.3, 0.6, 0.1, 0.2, 0.3, 0.4, 0.5, 0.5},
      {0.9, 0.6, 0.6, 0.1, 0.2, 0.3, 0.4, 0.5, 0.1, 0.2, 0.3, 0.4},
      {1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0, 0.0},
      {0.0, 0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
  };
}

TEST(SummarizeIntervalTest, PercentileLadderIsOrdered) {
  Rng rng(31);
  std::vector<SubSamples> inputs = EdgeInputs();
  for (int round = 0; round < 50; ++round) {
    SubSamples sub;
    for (auto& s : sub) {
      s = rng.UniformDouble();
    }
    inputs.push_back(sub);
  }
  for (const SubSamples& sub : inputs) {
    const RichUsage ladder = IntervalLadder(sub);
    EXPECT_LE(ladder.p50, ladder.p60);
    EXPECT_LE(ladder.p60, ladder.p70);
    EXPECT_LE(ladder.p70, ladder.p80);
    EXPECT_LE(ladder.p80, ladder.p90);
    EXPECT_LE(ladder.p90, ladder.p95);
    EXPECT_LE(ladder.p95, ladder.p99);
    EXPECT_LE(ladder.p99, ladder.max);
    EXPECT_LE(ladder.avg, ladder.max);
    ExpectP90MatchesLadder(sub);
  }
}

TEST(SummarizeIntervalTest, ConstantSamples) {
  SubSamples sub;
  sub.fill(0.25);
  const RichUsage ladder = IntervalLadder(sub);
  EXPECT_FLOAT_EQ(ladder.p50, 0.25f);
  EXPECT_FLOAT_EQ(ladder.max, 0.25f);
  EXPECT_FLOAT_EQ(ladder.avg, 0.25f);
  EXPECT_FLOAT_EQ(IntervalP90(sub), 0.25f);
  // Whole intervals clamped to 0 or to the limit.
  for (const double value : {0.25, 0.0, 1.0}) {
    sub.fill(value);
    ExpectP90MatchesLadder(sub);
  }
}

}  // namespace
}  // namespace crf
