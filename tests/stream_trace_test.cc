// Tests for streaming trace generation (GenerateCellTraceToFile) and the
// seal-by-machine-block writer it drives (StreamingTraceWriter).
//
// The streamed path renumbers tasks machine-major, so whole-trace task order
// differs from the batch seal. The contract is per-machine bit-identity:
// every machine carries the same capacity, ground-truth peaks, and task set
// (matched by task id) with exactly the same usage bytes. That is what makes
// the streamed file a drop-in replacement for the batch cell in simulation —
// verified end to end by running the same predictor over both.

#include "crf/trace/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "crf/core/predictor_factory.h"
#include "crf/sim/simulator.h"
#include "crf/trace/stream_writer.h"
#include "crf/trace/trace.h"
#include "crf/trace/trace_builder.h"
#include "crf/trace/trace_io.h"
#include "crf/util/thread_pool.h"

namespace crf {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("crf_stream_" + name)).string();
}

GeneratorOptions DayOptions(bool rich = false) {
  GeneratorOptions options;
  options.num_intervals = kIntervalsPerDay;
  options.rich_stats = rich;
  return options;
}

CellProfile SmallProfile() {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 8;
  return profile;
}

std::vector<char> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// Per-machine equality with task identity matched by task id (the streamed
// trace is machine-major, so task *indices* legitimately differ).
void ExpectSameMachineContent(const CellTrace& a, const CellTrace& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.num_intervals, b.num_intervals);
  EXPECT_EQ(a.dropped_tasks, b.dropped_tasks);
  EXPECT_EQ(a.has_rich(), b.has_rich());
  ASSERT_EQ(a.num_machines(), b.num_machines());
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  for (int m = 0; m < b.num_machines(); ++m) {
    EXPECT_DOUBLE_EQ(a.machine_capacity(m), b.machine_capacity(m));
    const std::span<const float> peak_a = a.true_peak(m);
    const std::span<const float> peak_b = b.true_peak(m);
    ASSERT_EQ(peak_a.size(), peak_b.size());
    for (size_t t = 0; t < peak_b.size(); ++t) {
      EXPECT_EQ(peak_a[t], peak_b[t]) << "machine " << m << " interval " << t;
    }

    std::map<TaskId, int32_t> by_id;
    for (const int32_t task : a.machine_tasks(m)) {
      by_id[a.task(task).task_id()] = task;
    }
    const std::span<const int32_t> tasks_b = b.machine_tasks(m);
    ASSERT_EQ(by_id.size(), tasks_b.size()) << "machine " << m;
    for (const int32_t task : tasks_b) {
      const TaskView tb = b.task(task);
      const auto it = by_id.find(tb.task_id());
      ASSERT_NE(it, by_id.end()) << "task id " << tb.task_id() << " missing on machine " << m;
      const TaskView ta = a.task(it->second);
      EXPECT_EQ(ta.job_id(), tb.job_id());
      EXPECT_EQ(ta.start(), tb.start());
      EXPECT_EQ(ta.sched_class(), tb.sched_class());
      EXPECT_EQ(ta.limit(), tb.limit());
      const std::span<const float> usage_a = ta.usage();
      const std::span<const float> usage_b = tb.usage();
      ASSERT_EQ(usage_a.size(), usage_b.size());
      for (size_t k = 0; k < usage_b.size(); ++k) {
        EXPECT_EQ(usage_a[k], usage_b[k]);  // exact: streamed content is bit-identical
      }
      if (b.has_rich()) {
        for (int c = 0; c < kNumRichColumns; ++c) {
          const auto col_a = ta.rich_column(static_cast<RichColumn>(c));
          const auto col_b = tb.rich_column(static_cast<RichColumn>(c));
          ASSERT_EQ(col_a.size(), col_b.size());
          for (size_t k = 0; k < col_b.size(); ++k) {
            EXPECT_EQ(col_a[k], col_b[k]);
          }
        }
      }
    }
  }
}

TEST(StreamTraceTest, StreamedGenerationMatchesBatch) {
  for (const bool rich : {false, true}) {
    const CellTrace batch = GenerateCellTrace(SmallProfile(), DayOptions(rich), Rng(5));
    const std::string path = TempPath(rich ? "gen_rich.crftrace" : "gen.crftrace");
    std::string error;
    StreamedTraceInfo info;
    ASSERT_TRUE(GenerateCellTraceToFile(SmallProfile(), DayOptions(rich), Rng(5), path, &error,
                                        &info))
        << error;
    EXPECT_EQ(info.num_tasks, batch.num_tasks());
    EXPECT_EQ(info.dropped_tasks, batch.dropped_tasks);
    EXPECT_EQ(info.file_bytes, std::filesystem::file_size(path));

    const auto streamed = LoadCellTrace(path, {TraceLoadMode::kHeap}, &error);
    ASSERT_TRUE(streamed.has_value()) << error;
    ExpectSameMachineContent(batch, *streamed);
    std::remove(path.c_str());
  }
}

TEST(StreamTraceTest, StreamedFileIsMachineMajor) {
  const std::string path = TempPath("major.crftrace");
  std::string error;
  ASSERT_TRUE(GenerateCellTraceToFile(SmallProfile(), DayOptions(), Rng(5), path, &error));
  const auto streamed = LoadCellTrace(path, {TraceLoadMode::kMapped}, &error);
  ASSERT_TRUE(streamed.has_value()) << error;

  // Machine-major renumbering makes every CSR row the contiguous ascending
  // range the cursor and page hints rely on.
  int32_t next = 0;
  for (int m = 0; m < streamed->num_machines(); ++m) {
    EXPECT_TRUE(streamed->MachineRowsContiguous(m)) << "machine " << m;
    for (const int32_t task : streamed->machine_tasks(m)) {
      EXPECT_EQ(task, next) << "machine " << m;
      ++next;
    }
  }
  EXPECT_EQ(next, streamed->num_tasks());
  std::remove(path.c_str());
}

TEST(StreamTraceTest, SimulationAgreesBatchVsStreamed) {
  const CellTrace batch = GenerateCellTrace(SmallProfile(), DayOptions(), Rng(9));
  const std::string path = TempPath("sim.crftrace");
  std::string error;
  ASSERT_TRUE(GenerateCellTraceToFile(SmallProfile(), DayOptions(), Rng(9), path, &error));
  const auto streamed = LoadCellTrace(path, {TraceLoadMode::kMapped}, &error);
  ASSERT_TRUE(streamed.has_value()) << error;

  ThreadPool one_thread(1);
  SimOptions sim_options;
  sim_options.pool = &one_thread;
  const SimResult a = SimulateCell(batch, ProductionMaxSpec(), sim_options);
  const SimResult b = SimulateCell(*streamed, ProductionMaxSpec(), sim_options);
  ASSERT_EQ(a.machines.size(), b.machines.size());
  for (size_t m = 0; m < b.machines.size(); ++m) {
    EXPECT_EQ(a.machines[m].violations, b.machines[m].violations) << "machine " << m;
    EXPECT_EQ(a.machines[m].intervals, b.machines[m].intervals);
    EXPECT_EQ(a.machines[m].occupied_intervals, b.machines[m].occupied_intervals);
    EXPECT_DOUBLE_EQ(a.machines[m].savings_ratio, b.machines[m].savings_ratio);
  }
  EXPECT_DOUBLE_EQ(a.MeanCellSavings(), b.MeanCellSavings());
  EXPECT_DOUBLE_EQ(a.MeanViolationRate(), b.MeanViolationRate());
  std::remove(path.c_str());
}

TEST(StreamTraceTest, ProbedPlacementIsDeterministic) {
  GeneratorOptions options = DayOptions();
  options.placement_probes = 4;
  const std::string path_a = TempPath("probe_a.crftrace");
  const std::string path_b = TempPath("probe_b.crftrace");
  std::string error;
  StreamedTraceInfo info;
  ASSERT_TRUE(GenerateCellTraceToFile(SmallProfile(), options, Rng(13), path_a, &error, &info));
  EXPECT_EQ(info.placement_attempts, info.num_tasks + info.dropped_tasks);
  EXPECT_GT(info.placement_attempts, 0);
  EXPECT_GE(info.placement_ms, 0.0);
  // The usage pool never changes the streamed bytes.
  ThreadPool pool(4);
  GeneratorOptions pooled = options;
  pooled.pool = &pool;
  ASSERT_TRUE(GenerateCellTraceToFile(SmallProfile(), pooled, Rng(13), path_b, &error));
  const std::vector<char> bytes_a = FileBytes(path_a);
  const std::vector<char> bytes_b = FileBytes(path_b);
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);

  // Probing changes placements (it is part of the cell's identity), so the
  // probed file must differ from the full-scan one — otherwise the option
  // silently did nothing.
  ASSERT_TRUE(GenerateCellTraceToFile(SmallProfile(), DayOptions(), Rng(13), path_b, &error));
  EXPECT_NE(bytes_a, FileBytes(path_b));

  // The probed batch generator matches the probed streamed file per machine.
  const CellTrace batch = GenerateCellTrace(SmallProfile(), options, Rng(13));
  const auto streamed = LoadCellTrace(path_a, {TraceLoadMode::kHeap}, &error);
  ASSERT_TRUE(streamed.has_value()) << error;
  ExpectSameMachineContent(batch, *streamed);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// A hand-built two-machine cell whose tasks are added machine-major, with
// rich rows, so the writer can be fed the builder's rows as they are.
void BuildMachineMajorCell(CellTraceBuilder& builder) {
  builder.Reset("hand", 4, 2);
  builder.set_dropped_tasks(3);
  builder.set_machine_capacity(0, 2.0);
  builder.set_machine_capacity(1, 4.0);
  builder.mutable_true_peak(0) = {0.5f, 0.25f, 0.0f, 0.0f};
  builder.mutable_true_peak(1) = {1.0f, 1.0f, 0.5f, 0.25f};
  const int32_t machines[] = {0, 0, 1, 1};
  for (int i = 0; i < 4; ++i) {
    const TaskId id = 10 + i;
    const int32_t task =
        builder.AddTask(id, id / 2, machines[i], i % 2, 0.5 + 0.1 * static_cast<double>(id),
                        i == 3 ? SchedulingClass::kLatencySensitive : SchedulingClass::kBatch);
    for (int k = 0; k < 3 - i % 2; ++k) {
      const float value = 0.125f * static_cast<float>(id) + 0.25f * static_cast<float>(k);
      builder.AppendUsage(task, value);
      RichUsage ladder;
      ladder.avg = value * 0.5f;
      ladder.p50 = value * 0.6f;
      ladder.p90 = value;
      ladder.max = value * 1.5f;
      builder.AppendRich(task, ladder);
    }
  }
}

// The writer's view of a sealed machine-major trace. `spec` points into the
// columns, so a SealedSpec is neither copied nor moved.
struct SealedSpec {
  explicit SealedSpec(const CellTrace& cell) {
    for (int32_t i = 0; i < cell.num_tasks(); ++i) {
      const TaskView task = cell.task(i);
      task_id.push_back(task.task_id());
      job_id.push_back(task.job_id());
      machine_of.push_back(task.machine_index());
      start.push_back(task.start());
      sched_class.push_back(static_cast<uint8_t>(task.sched_class()));
      limit.push_back(task.limit());
      runtime.push_back(task.runtime());
      order.push_back(i);
    }
    for (int m = 0; m < cell.num_machines(); ++m) {
      capacity.push_back(cell.machine_capacity(m));
    }
    spec = {cell.name, cell.num_intervals, cell.dropped_tasks, cell.has_rich(), task_id, job_id,
            machine_of, start, sched_class, limit, runtime, capacity, {}, order};
  }
  SealedSpec(const SealedSpec&) = delete;
  SealedSpec& operator=(const SealedSpec&) = delete;

  std::vector<TaskId> task_id;
  std::vector<JobId> job_id;
  std::vector<int32_t> machine_of;
  std::vector<Interval> start;
  std::vector<uint8_t> sched_class;
  std::vector<double> limit;
  std::vector<Interval> runtime;
  std::vector<double> capacity;
  std::vector<int32_t> order;
  TraceColumns spec;
};

// The streaming writer and the heap seal are two writers of one format: for
// machine-major input they must produce the same file bytes.
TEST(StreamTraceTest, WriterMatchesSealedBinaryForMachineMajorInput) {
  CellTraceBuilder builder;
  BuildMachineMajorCell(builder);
  const CellTrace sealed = builder.Seal();
  const std::string sealed_path = TempPath("sealed.crftrace");
  ASSERT_TRUE(SaveCellTraceBinary(sealed, sealed_path, nullptr));

  const SealedSpec columns(sealed);
  const std::string streamed_path = TempPath("streamed.crftrace");
  std::string error;
  StreamingTraceWriter writer(columns.spec, streamed_path, &error);
  ASSERT_TRUE(writer.ok()) << error;
  for (int32_t i = 0; i < sealed.num_tasks(); ++i) {
    const TaskView task = sealed.task(i);
    std::copy(task.usage().begin(), task.usage().end(), writer.rows().usage_row(i).begin());
    for (int c = 0; c < kNumRichColumns; ++c) {
      const auto column = task.rich_column(static_cast<RichColumn>(c));
      std::copy(column.begin(), column.end(),
                writer.rows().rich_row(i, static_cast<RichColumn>(c)).begin());
    }
  }
  for (int m = 0; m < sealed.num_machines(); ++m) {
    std::copy(sealed.true_peak(m).begin(), sealed.true_peak(m).end(),
              writer.rows().true_peak_row(m).begin());
  }
  writer.RetireMachines(0, sealed.num_machines());
  ASSERT_TRUE(writer.Finish(&error)) << error;
  EXPECT_EQ(FileBytes(streamed_path), FileBytes(sealed_path));
  std::remove(sealed_path.c_str());
  std::remove(streamed_path.c_str());
}

// Temporary files the writer left next to `path`.
int TempSiblings(const std::string& path) {
  const std::filesystem::path target(path);
  const std::string prefix = target.filename().string() + ".tmp.";
  int found = 0;
  for (const auto& entry : std::filesystem::directory_iterator(target.parent_path())) {
    found += entry.path().filename().string().rfind(prefix, 0) == 0 ? 1 : 0;
  }
  return found;
}

// A writer abandoned half-written (generation failed, or the process is
// unwinding) must leave the file already at the path as it was, and no
// temporary file. Only Finish replaces it.
TEST(StreamTraceTest, AbandonedWriterLeavesExistingFileIntact) {
  const std::string path = TempPath("existing.crftrace");
  {
    std::ofstream out(path, std::ios::binary);
    out << "previous contents";
  }
  const std::vector<char> before = FileBytes(path);
  CellTraceBuilder builder;
  BuildMachineMajorCell(builder);
  const SealedSpec columns(builder.Seal());
  {
    std::string error;
    StreamingTraceWriter writer(columns.spec, path, &error);
    ASSERT_TRUE(writer.ok()) << error;
    writer.rows().usage_row(0)[0] = 0.25f;
    writer.RetireMachines(0, 1);
    EXPECT_EQ(FileBytes(path), before);
    EXPECT_EQ(TempSiblings(path), 1);
  }
  EXPECT_EQ(FileBytes(path), before);
  EXPECT_EQ(TempSiblings(path), 0);
  std::remove(path.c_str());
}

TEST(StreamTraceTest, WriterRejectsNonMachineMajorSpec) {
  // The writer's machine-major invariant is what makes block retirement
  // page-clean; handing it an interleaved numbering must fail up front, not
  // corrupt the CSR.
  const std::vector<TaskId> task_id = {1, 2};
  const std::vector<JobId> job_id = {1, 1};
  const std::vector<int32_t> machine_of = {1, 0};  // non-decreasing violated
  const std::vector<Interval> start = {0, 0};
  const std::vector<uint8_t> sched_class = {0, 0};
  const std::vector<double> limit = {0.5, 0.5};
  const std::vector<Interval> runtime = {1, 1};
  const std::vector<double> capacity = {1.0, 1.0};
  const std::vector<int32_t> order = {0, 1};

  TraceColumns spec;
  spec.name = "bad";
  spec.num_intervals = 2;
  spec.task_id = task_id;
  spec.job_id = job_id;
  spec.machine_of = machine_of;
  spec.start = start;
  spec.sched_class = sched_class;
  spec.limit = limit;
  spec.runtime = runtime;
  spec.capacity = capacity;
  spec.order = order;

  const std::string path = TempPath("bad_spec.crftrace");
  std::string error;
  EXPECT_DEATH(StreamingTraceWriter(spec, path, &error),
               "machine-major task order");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace crf
