// Helpers shared by the benchmark's workloads: tail-aware percentiles, the
// open-loop prober's seeded Zipfian schedule, quantiles of the serve tier's
// log2-ns histograms (read from its metrics-snapshot JSON), and the metric
// output format.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "crf/util/rng.h"

namespace perfbench {

// A percentile is reported only when at least this many samples lie beyond
// it; otherwise the tail is too thin to compare between runs.
inline constexpr int64_t kMinSamplesBeyond = 10;

// Nearest-rank quantile: the ceil(q*n)-th smallest sample (1-based).
// Reorders `samples`. Returns 0 for an empty set.
double Quantile(std::vector<double>& samples, double q);

// Samples strictly above the nearest-rank q-quantile of n samples.
int64_t SamplesBeyond(int64_t n, double q);

struct Percentiles {
  int64_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
};

Percentiles Summarize(std::vector<double>& samples);

// The median of a small set of per-pass measurements (copies its input).
double Median(std::vector<double> values);

// The open-loop prober's schedule: probe i is due i/rate seconds after the
// start, on a machine of YCSB's scrambled Zipfian popularity (theta 0.99),
// so the hot machines are spread over every ingest shard instead of
// clustering at low ids.
class ProbeSchedule {
 public:
  struct Probe {
    int64_t due_ns = 0;
    int machine = 0;
  };

  ProbeSchedule(double rate_per_s, int num_machines, uint64_t seed);

  Probe Next();

 private:
  static constexpr double kTheta = 0.99;

  double period_ns_;
  int num_machines_;
  crf::Rng rng_;
  int64_t index_ = 0;
  double alpha_;
  double zeta_n_;
  double eta_;
};

// One bucket of a log2-ns histogram as the metrics snapshot prints it.
struct Log2Bucket {
  int log2 = 0;
  int64_t count = 0;
  double mean = 0.0;
};

// The non-empty buckets of the histogram array stored under `array_key`, in
// the first object of `json` that follows `anchor` (pass an empty anchor for
// the first occurrence). Empty if the key is absent.
std::vector<Log2Bucket> ParseLog2Histogram(std::string_view json, std::string_view anchor,
                                           std::string_view array_key);

// `after` minus `before`, bucket by bucket: the samples recorded between two
// snapshots of a cumulative histogram.
std::vector<Log2Bucket> SubtractHistogram(const std::vector<Log2Bucket>& after,
                                          const std::vector<Log2Bucket>& before);

int64_t HistogramCount(const std::vector<Log2Bucket>& buckets);

// The mean of the bucket holding the nearest-rank q-quantile.
double HistogramQuantile(const std::vector<Log2Bucket>& buckets, double q);

// The first integer stored under `key` in `json` (-1 if absent).
int64_t ParseJsonInt(std::string_view json, std::string_view key);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  // Samples behind a percentile (-1: not a percentile).
  int64_t samples = -1;
  // What the number measures on this workload.
  std::string note;
};

// "metric <name> = <value> <unit> [n=<samples>] [# <note>]", the value with
// every significant digit.
std::string FormatMetricLine(const Metric& metric);

// The result object: {"correct": ..., "attempted": ..., "failed": ...,
// "metrics": {"<name>": {"value": ..., "unit": "..."}, ...}}, on one line.
std::string FormatResultJson(bool correct, int64_t attempted, int64_t failed,
                             const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
