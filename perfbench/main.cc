// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <serve-loopback|sweep-grid|cluster-ab> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Untraced (--trace 0), the workload repeats its measured pass for about
// --seconds and prints the three end-to-end metrics. Traced (--trace 1), it
// runs one untraced pass of the selected workload, then one traced pass of
// every workload, so that every layer's numbers appear in each traced
// result; it prints the per-layer metrics and, for the selected workload,
// the tracing overhead on each end-to-end metric. Every line before the last
// is for people; the last line is the JSON result. The exit code is nonzero
// when a request or a correctness check failed.

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "crf/util/arg_parse.h"
#include "crf/util/rss.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  void (*run)(const RunConfig& config, bool traced, Report& report);
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"serve-loopback", RunServeLoopback},
      {"sweep-grid", RunSweepGrid},
      {"cluster-ab", RunClusterAb},
  };
  return workloads;
}

// The end-to-end metrics and their units, in output order. Every workload
// reports each one.
const std::vector<std::pair<std::string, std::string>>& EndToEnd() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"throughput_per_s", "1/s"}};
  return metrics;
}

bool IsEndToEnd(const std::string& name) {
  for (const auto& [e2e, unit] : EndToEnd()) {
    if (e2e == name) {
      return true;
    }
  }
  return false;
}

void PrintReport(const char* title, const Report& report) {
  std::printf("## %s\n", title);
  for (const Metric& metric : report.metrics()) {
    std::printf("%s\n", FormatMetricLine(metric).c_str());
  }
}

int Usage(const std::string& error) {
  std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  std::fprintf(stderr,
               "usage: perfbench --workload <serve-loopback|sweep-grid|cluster-ab> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  int64_t seed = -1;
  int64_t seconds = -1;
  int64_t trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    std::string error;
    bool ok = true;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      ok = crf::ParseIntFlag("seed", value, 0, INT64_MAX, &seed, &error);
    } else if (flag == "--seconds") {
      ok = crf::ParseIntFlag("seconds", value, 1, 3600, &seconds, &error);
    } else if (flag == "--trace") {
      ok = crf::ParseIntFlag("trace", value, 0, 1, &trace, &error);
    } else {
      return Usage("unknown flag " + flag);
    }
    if (!ok) {
      return Usage(error);
    }
  }
  if (seed < 0 || seconds < 0 || trace < 0) {
    return Usage("--seed, --seconds and --trace are required");
  }
  const Workload* selected = nullptr;
  for (const Workload& workload : Workloads()) {
    if (workload_name == workload.name) {
      selected = &workload;
    }
  }
  if (selected == nullptr) {
    return Usage("unknown workload \"" + workload_name + "\"");
  }

  RunConfig config;
  config.seed = static_cast<uint64_t>(seed);
  config.seconds = static_cast<double>(seconds);

  std::vector<Metric> result;
  int64_t attempted = 0;
  int64_t failed = 0;
  if (trace == 0) {
    Report report;
    selected->run(config, /*traced=*/false, report);
    report.Add("peak_rss_mb", static_cast<double>(crf::ReadPeakRssBytes()) / (1 << 20), "MB",
               "process peak resident set (VmHWM)");
    PrintReport(selected->name, report);
    // A workload that failed before measuring leaves its metrics out; they
    // print as null and the run is incorrect.
    for (const auto& [name, unit] : EndToEnd()) {
      const Metric* metric = report.Find(name);
      result.push_back({name, metric != nullptr ? metric->value : std::nan(""), unit, -1, ""});
    }
    attempted = report.attempted();
    failed = report.failed();
  } else {
    // One pass per workload: the traced run is for attribution, not for
    // comparing end-to-end numbers between commits.
    RunConfig single = config;
    single.seconds = 0.0;
    single.setup_repeats = 1;
    single.min_passes = 1;

    Report untraced;
    selected->run(single, /*traced=*/false, untraced);
    PrintReport((std::string(selected->name) + ", untraced pass").c_str(), untraced);

    std::vector<const Workload*> order = {selected};
    for (const Workload& workload : Workloads()) {
      if (&workload != selected) {
        order.push_back(&workload);
      }
    }
    for (const Workload* workload : order) {
      Report traced;
      workload->run(single, /*traced=*/true, traced);
      PrintReport((std::string(workload->name) + ", traced pass").c_str(), traced);
      attempted += traced.attempted();
      failed += traced.failed();
      if (workload == selected) {
        std::printf("## tracing overhead on %s (traced pass vs untraced pass)\n",
                    selected->name);
        for (const Metric& metric : untraced.metrics()) {
          if (!IsEndToEnd(metric.name)) {
            continue;
          }
          const Metric* found = traced.Find(metric.name);
          const double with = found != nullptr ? found->value : std::nan("");
          std::printf("overhead %s: untraced %.6g, traced %.6g, change %+.2f%%\n",
                      metric.name.c_str(), metric.value, with,
                      metric.value != 0.0 ? 100.0 * (with - metric.value) / metric.value : 0.0);
        }
      }
      // Layer metrics are unique to their workload except trace.generate_s,
      // which the selected workload (traced first) supplies when it has one.
      for (const Metric& metric : traced.metrics()) {
        bool seen = IsEndToEnd(metric.name);
        for (const Metric& kept : result) {
          seen = seen || kept.name == metric.name;
        }
        if (!seen) {
          result.push_back(metric);
        }
      }
    }
    attempted += untraced.attempted();
    failed += untraced.failed();
  }

  bool finite = true;
  for (const Metric& metric : result) {
    finite = finite && std::isfinite(metric.value);
  }
  const bool correct = failed == 0 && finite && attempted > 0;
  std::printf("metric error_rate = %.6g  # failed requests and checks over attempted\n",
              attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                            : 1.0);
  std::printf("%s\n", FormatResultJson(correct, attempted, failed, result).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
