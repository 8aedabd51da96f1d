// Trace tooling: generate, persist, reload, and profile a synthetic cell
// trace — the data-management loop around the simulator (the artifact's
// "store and load intermediate data after each step to reduce the
// simulation's computation costs").

#include <cstdio>
#include <filesystem>

#include "crf/trace/generator.h"
#include "crf/trace/trace_io.h"
#include "crf/trace/trace_stats.h"
#include "crf/util/table.h"

using namespace crf;  // NOLINT: example brevity.

int main() {
  // 1. Generate.
  CellProfile profile = SimCellProfile('c');
  profile.num_machines = 24;
  GeneratorOptions options;
  options.num_intervals = 2 * kIntervalsPerDay;
  const CellTrace cell = GenerateCellTrace(profile, options, Rng(11));
  std::printf("generated %s: %d machines, %d tasks, %lld dropped by placement\n",
              cell.name.c_str(), cell.num_machines(), cell.num_tasks(),
              static_cast<long long>(cell.dropped_tasks));

  // 2. Persist and reload. The binary file is the trace's arena verbatim, so
  // loading is one read into an aligned slab; it is the only format crf
  // reads. The text export is for inspection and external tooling.
  const std::string text_path =
      (std::filesystem::temp_directory_path() / "crf_example_cell_c.trace").string();
  const std::string binary_path =
      (std::filesystem::temp_directory_path() / "crf_example_cell_c.crftrace").string();
  std::string error;
  if (!SaveCellTraceBinary(cell, binary_path, &error) ||
      !ExportCellTraceText(cell, text_path, &error)) {
    std::fprintf(stderr, "save failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("saved binary -> %s (%.1f KiB), exported text -> %s (%.1f KiB)\n",
              binary_path.c_str(), std::filesystem::file_size(binary_path) / 1024.0,
              text_path.c_str(), std::filesystem::file_size(text_path) / 1024.0);
  const auto loaded = LoadCellTrace(binary_path);
  if (!loaded.has_value()) {
    std::fprintf(stderr, "reload failed\n");
    return 1;
  }
  std::printf("reloaded: %d tasks (identical placements and usage)\n\n",
              loaded->num_tasks());

  // 3. Profile the workload, Fig 4 / Fig 7 style.
  const Ecdf runtimes = TaskRuntimeHoursCdf(*loaded);
  const Ecdf ratios = UsageToLimitCdf(*loaded, 4);
  Ecdf submissions;
  for (const int64_t n : SubmissionRateSeries(*loaded)) {
    submissions.Add(static_cast<double>(n));
  }

  Table table({"metric", "p50", "p95", "max"});
  table.AddRow("task runtime (hours)",
               {runtimes.Quantile(0.5), runtimes.Quantile(0.95), runtimes.max()});
  table.AddRow("usage / limit", {ratios.Quantile(0.5), ratios.Quantile(0.95), ratios.max()});
  table.AddRow("submissions per 5 min",
               {submissions.Quantile(0.5), submissions.Quantile(0.95), submissions.max()});
  table.Print();

  std::printf("\nfraction of tasks under 24h: %.3f (cell c is the short-task cell)\n",
              runtimes.Evaluate(24.0));
  std::remove(text_path.c_str());
  std::remove(binary_path.c_str());
  return 0;
}
