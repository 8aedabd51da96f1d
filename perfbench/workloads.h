// The benchmark's workloads and the report they fill.
//
// A workload runs in two modes. Untraced, it measures the end-to-end metrics
// (the same three names on every workload; each workload's note says what its
// numbers count). Traced, it additionally times the benchmark's own calls
// into each layer's public functions and reads the counters the layers
// expose; those per-layer numbers are never measured inside src/.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  // Measurement budget for the workload's repeated passes.
  double seconds = 10.0;
  // setup_s is the median of this many set-ups.
  int setup_repeats = 3;
  int min_passes = 3;
};

// Metrics, request outcomes and correctness checks of one run.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "", int64_t samples = -1);
  // A p99 over `samples` values. Fewer than kMinSamplesBeyond samples above
  // it fail a check: the tail is too thin to compare.
  void AddP99(const std::string& name, double value, int64_t samples, const std::string& unit,
              const std::string& note);
  void Check(bool ok, const std::string& what);
  void Requests(int64_t attempted, int64_t failed);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  // The metric stored under `name`, or nullptr.
  const Metric* Find(const std::string& name) const;

 private:
  std::vector<Metric> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

double SecondsSince(std::chrono::steady_clock::time_point start);

// Runs `pass` at least `min_passes` times, then again while another pass of
// the median length still fits in `seconds` (counted from the first pass).
template <typename Pass>
void RepeatFor(double seconds, int min_passes, Pass&& pass) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<double> lengths;
  for (;;) {
    const auto pass_start = std::chrono::steady_clock::now();
    if (!pass()) {
      return;
    }
    lengths.push_back(SecondsSince(pass_start));
    if (static_cast<int>(lengths.size()) >= min_passes &&
        SecondsSince(start) + Median(lengths) > seconds) {
      return;
    }
  }
}

// Each workload fills `report` with its end-to-end metrics (traced = false)
// or its per-layer metrics (traced = true).
void RunServeLoopback(const RunConfig& config, bool traced, Report& report);
void RunSweepGrid(const RunConfig& config, bool traced, Report& report);
void RunClusterAb(const RunConfig& config, bool traced, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
