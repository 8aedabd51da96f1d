#include "bench_common.h"

#include <cstdio>

#include "crf/util/csv.h"

namespace crf::bench {

Context Init(const std::string& name, const std::string& what_it_reproduces) {
  Context ctx;
  ctx.name = name;
  ctx.seed = BenchSeed();
  ctx.scale = BenchScale();
  ctx.out_dir = BenchOutputDir();
  EnsureDirectory(ctx.out_dir);
  PrintBanner(name + " — " + what_it_reproduces);
  std::printf("seed=%llu scale=%.2f out=%s\n", static_cast<unsigned long long>(ctx.seed),
              ctx.scale, ctx.out_dir.c_str());
  return ctx;
}

CellTrace MakeSimCell(const Context& ctx, char letter, Interval num_intervals,
                      bool rich_stats) {
  CellProfile profile = SimCellProfile(letter);
  profile.num_machines = ScaledCount(profile.num_machines);
  GeneratorOptions options;
  options.num_intervals = num_intervals;
  options.rich_stats = rich_stats;
  CellTrace cell = GenerateCellTrace(profile, options, ctx.rng().Fork(letter));
  cell.FilterToServingTasks();
  return cell;
}

const std::vector<double>& CdfProbes() {
  static const std::vector<double> probes = {0.01, 0.05, 0.1,  0.25, 0.5,
                                             0.75, 0.9,  0.95, 0.99, 1.0};
  return probes;
}

void ReportCdfs(const Context& ctx, const std::string& title,
                const std::vector<std::pair<std::string, const Ecdf*>>& series,
                const std::string& csv_file) {
  std::vector<std::string> header{"series"};
  for (const double p : CdfProbes()) {
    char buffer[16];
    std::snprintf(buffer, sizeof(buffer), "p%g", p * 100.0);
    header.emplace_back(buffer);
  }
  Table table(std::move(header));
  for (const auto& [name, ecdf] : series) {
    std::vector<double> row;
    for (const double p : CdfProbes()) {
      row.push_back(ecdf->empty() ? 0.0 : ecdf->Quantile(p));
    }
    table.AddRow(name, row);
  }
  std::printf("\n%s (quantiles of the plotted distribution)\n", title.c_str());
  table.Print();
  WriteCdfsCsv(ctx.CsvPath(csv_file), series);
  std::printf("full curves -> %s\n", ctx.CsvPath(csv_file).c_str());
}

}  // namespace crf::bench
