#include <cstdio>

#include "workloads.h"

namespace perfbench {

void Report::Add(const std::string& name, double value, const std::string& unit,
                 const std::string& note, int64_t samples) {
  metrics_.push_back({name, value, unit, samples, note});
}

void Report::AddP99(const std::string& name, double value, int64_t samples,
                    const std::string& unit, const std::string& note) {
  Check(SamplesBeyond(samples, 0.99) >= kMinSamplesBeyond,
        name + " has " + std::to_string(kMinSamplesBeyond) + " samples beyond it (n=" +
            std::to_string(samples) + ")");
  Add(name, value, unit, note, samples);
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
  }
  std::printf("check %s: %s\n", ok ? "ok" : "FAILED", what.c_str());
  std::fflush(stdout);
}

void Report::Requests(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) {
      return &metric;
    }
  }
  return nullptr;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace perfbench
