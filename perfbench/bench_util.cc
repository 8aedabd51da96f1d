#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

double Quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  const int64_t n = static_cast<int64_t>(samples.size());
  const int64_t rank = std::clamp<int64_t>(n - SamplesBeyond(n, q), 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[rank - 1];
}

int64_t SamplesBeyond(int64_t n, double q) {
  // The epsilon keeps q*n from rounding up past an exact integer rank
  // (0.99 * 1000 must give rank 990, not 991).
  const auto rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::clamp<int64_t>(rank, 0, n);
}

Percentiles Summarize(std::vector<double>& samples) {
  Percentiles out;
  out.count = static_cast<int64_t>(samples.size());
  out.p50 = Quantile(samples, 0.50);
  out.p99 = Quantile(samples, 0.99);
  return out;
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

namespace {

double Zeta(int n, double theta) {
  double sum = 0.0;
  for (int i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

}  // namespace

ProbeSchedule::ProbeSchedule(double rate_per_s, int num_machines, uint64_t seed)
    : period_ns_(1e9 / rate_per_s),
      num_machines_(num_machines),
      rng_(seed),
      alpha_(1.0 / (1.0 - kTheta)),
      zeta_n_(Zeta(num_machines, kTheta)),
      eta_((1.0 - std::pow(2.0 / num_machines, 1.0 - kTheta)) /
           (1.0 - Zeta(2, kTheta) / zeta_n_)) {}

ProbeSchedule::Probe ProbeSchedule::Next() {
  Probe probe;
  probe.due_ns = static_cast<int64_t>(static_cast<double>(index_) * period_ns_);
  ++index_;
  // YCSB's Zipfian draw of a popularity rank, then a hash of the rank picks
  // the machine.
  const double u = rng_.UniformDouble();
  const double uz = u * zeta_n_;
  int64_t rank;
  if (uz < 1.0) {
    rank = 0;
  } else if (uz < 1.0 + std::pow(0.5, kTheta)) {
    rank = 1;
  } else {
    rank = static_cast<int64_t>(num_machines_ * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  }
  uint64_t state = static_cast<uint64_t>(std::min<int64_t>(rank, num_machines_ - 1));
  probe.machine =
      static_cast<int>(crf::SplitMix64(state) % static_cast<uint64_t>(num_machines_));
  return probe;
}

namespace {

// The number following `"key":` at or after `from`, or npos.
size_t FindValue(std::string_view json, std::string_view key, size_t from) {
  const std::string quoted = "\"" + std::string(key) + "\":";
  const size_t at = json.find(quoted, from);
  return at == std::string_view::npos ? at : at + quoted.size();
}

double NumberAt(std::string_view json, size_t at) {
  const std::string text(json.substr(at, 48));
  return std::strtod(text.c_str(), nullptr);
}

}  // namespace

std::vector<Log2Bucket> ParseLog2Histogram(std::string_view json, std::string_view anchor,
                                           std::string_view array_key) {
  std::vector<Log2Bucket> buckets;
  size_t at = anchor.empty() ? 0 : json.find(anchor);
  if (at == std::string_view::npos) {
    return buckets;
  }
  at = FindValue(json, array_key, at);
  if (at == std::string_view::npos) {
    return buckets;
  }
  const size_t end = json.find(']', at);
  // Each entry reads {"<log2 key>": i, "count": c, "<mean key>": m}.
  for (size_t open = json.find('{', at); open < end; open = json.find('{', open + 1)) {
    const size_t close = json.find('}', open);
    const std::string_view entry = json.substr(open, close - open);
    const size_t first_colon = entry.find(':');
    const size_t count_at = FindValue(entry, "count", 0);
    const size_t mean_colon = entry.rfind(':');
    if (first_colon == std::string_view::npos || count_at == std::string_view::npos) {
      break;
    }
    Log2Bucket bucket;
    bucket.log2 = static_cast<int>(NumberAt(entry, first_colon + 1));
    bucket.count = static_cast<int64_t>(NumberAt(entry, count_at));
    bucket.mean = NumberAt(entry, mean_colon + 1);
    buckets.push_back(bucket);
  }
  return buckets;
}

std::vector<Log2Bucket> SubtractHistogram(const std::vector<Log2Bucket>& after,
                                          const std::vector<Log2Bucket>& before) {
  std::vector<Log2Bucket> out;
  for (const Log2Bucket& a : after) {
    Log2Bucket delta = a;
    for (const Log2Bucket& b : before) {
      if (b.log2 == a.log2) {
        delta.count = a.count - b.count;
        delta.mean = delta.count > 0 ? (a.mean * static_cast<double>(a.count) -
                                        b.mean * static_cast<double>(b.count)) /
                                           static_cast<double>(delta.count)
                                     : 0.0;
      }
    }
    if (delta.count > 0) {
      out.push_back(delta);
    }
  }
  return out;
}

int64_t HistogramCount(const std::vector<Log2Bucket>& buckets) {
  int64_t total = 0;
  for (const Log2Bucket& bucket : buckets) {
    total += bucket.count;
  }
  return total;
}

double HistogramQuantile(const std::vector<Log2Bucket>& buckets, double q) {
  const int64_t n = HistogramCount(buckets);
  const int64_t rank = std::max<int64_t>(1, n - SamplesBeyond(n, q));
  int64_t seen = 0;
  for (const Log2Bucket& bucket : buckets) {
    seen += bucket.count;
    if (seen >= rank) {
      return bucket.mean;
    }
  }
  return 0.0;
}

int64_t ParseJsonInt(std::string_view json, std::string_view key) {
  const size_t at = FindValue(json, key, 0);
  return at == std::string_view::npos ? -1 : static_cast<int64_t>(NumberAt(json, at));
}

namespace {

std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

std::string FormatMetricLine(const Metric& metric) {
  std::string line = "metric " + metric.name + " = " + FormatNumber(metric.value) + " " +
                     metric.unit;
  if (metric.samples >= 0) {
    line += " n=" + std::to_string(metric.samples);
  }
  if (!metric.note.empty()) {
    line += "  # " + metric.note;
  }
  return line;
}

std::string FormatResultJson(bool correct, int64_t attempted, int64_t failed,
                             const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& metric = metrics[i];
    // JSON has no NaN or infinity; a metric that produced one is reported
    // as null and the run is marked incorrect by the caller.
    const std::string value =
        std::isfinite(metric.value) ? FormatNumber(metric.value) : std::string("null");
    out += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
