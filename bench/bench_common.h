// Shared scaffolding for the figure/table reproduction binaries.
//
// Every bench binary runs with no arguments (so `for b in build/bench/*; do
// $b; done` regenerates the whole evaluation), prints the series the paper
// figure plots as aligned tables, and writes the full-resolution curves as
// CSV under $REPRO_OUT (default ./bench_out). Workload sizes scale with
// $REPRO_SCALE and all randomness derives from $REPRO_SEED.

#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <string>
#include <utility>
#include <vector>

#include "crf/stats/ecdf.h"
#include "crf/trace/generator.h"
#include "crf/util/env.h"
#include "crf/util/rng.h"
#include "crf/util/table.h"
#include "crf/util/time_grid.h"

namespace crf::bench {

struct Context {
  std::string name;
  uint64_t seed = 42;
  double scale = 1.0;
  std::string out_dir = "bench_out";

  Rng rng() const { return Rng(seed); }
  std::string CsvPath(const std::string& file) const { return out_dir + "/" + file; }
};

// Reads the environment, prints the bench banner, returns the context.
Context Init(const std::string& name, const std::string& what_it_reproduces);

// Generates a cell from profile `letter` with machine count scaled by
// REPRO_SCALE, filtered to serving tasks (paper Section 5.1.2).
CellTrace MakeSimCell(const Context& ctx, char letter, Interval num_intervals,
                      bool rich_stats = false);

// The probability levels tabulated for every CDF.
const std::vector<double>& CdfProbes();

// Prints a table of CDF quantiles (one row per series) and writes the full
// curves to `csv_file`.
void ReportCdfs(const Context& ctx, const std::string& title,
                const std::vector<std::pair<std::string, const Ecdf*>>& series,
                const std::string& csv_file);

}  // namespace crf::bench

#endif  // BENCH_BENCH_COMMON_H_
