// Checkpoint/restore contract (checkpoint.h): a run interrupted at any
// interval boundary and restored from its checkpoint file finishes
// bit-identically to the uninterrupted run, and any damaged or mismatched
// file is rejected with a diagnostic — never a crash or a CHECK abort.

#include "crf/serve/checkpoint.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "crf/core/predictor_factory.h"
#include "crf/core/spec_parser.h"
#include "crf/serve/replay.h"
#include "crf/trace/cell_profile.h"
#include "crf/trace/generator.h"
#include "crf/trace/trace_builder.h"
#include "crf/util/byte_io.h"
#include "crf/util/rng.h"

namespace crf {
namespace {

CellTrace RandomCell(uint64_t seed, const std::string& name = "ckpt_cell") {
  Rng rng(seed);
  const Interval num_intervals = 40 + static_cast<Interval>(rng.UniformInt(21));
  const int num_machines = 2 + static_cast<int>(rng.UniformInt(4));
  CellTraceBuilder builder(name, num_intervals, num_machines);

  TaskId next_id = 1;
  for (int m = 0; m < num_machines; ++m) {
    const int num_tasks = 1 + static_cast<int>(rng.UniformInt(12));
    for (int i = 0; i < num_tasks; ++i) {
      const TaskId id = next_id++;
      const Interval start = static_cast<Interval>(rng.UniformInt(num_intervals));
      const double limit = 0.05 + rng.UniformDouble() * 0.95;
      const Interval len = 1 + static_cast<Interval>(rng.UniformInt(num_intervals - start + 3));
      const int32_t index =
          builder.AddTask(id, id, m, start, limit, SchedulingClass::kLatencySensitive);
      builder.ReserveUsage(index, static_cast<size_t>(len));
      for (Interval k = 0; k < len; ++k) {
        builder.AppendUsage(index, static_cast<float>(limit * rng.UniformDouble()));
      }
    }
  }
  return builder.Seal();
}

// ctest runs each gtest case as its own process, so files must be unique
// per test to survive a parallel run. Parameterized test names contain '/'.
std::string TempPath(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string tag = std::string(info->test_suite_name()) + "_" + info->name();
  for (char& c : tag) {
    if (c == '/') {
      c = '_';
    }
  }
  return ::testing::TempDir() + "/" + tag + "_" + name;
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr);
  std::fseek(file, 0, SEEK_END);
  std::vector<uint8_t> bytes(static_cast<size_t>(std::ftell(file)));
  std::fseek(file, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), file), bytes.size());
  std::fclose(file);
  return bytes;
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  // fwrite's buffer may not be null, which an empty vector's data() can be.
  ASSERT_EQ(bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
  std::fclose(file);
}

void ExpectResultsBitIdentical(const SimResult& restored, const SimResult& uninterrupted) {
  ASSERT_EQ(restored.machines.size(), uninterrupted.machines.size());
  for (size_t m = 0; m < uninterrupted.machines.size(); ++m) {
    const MachineMetrics& a = restored.machines[m];
    const MachineMetrics& b = uninterrupted.machines[m];
    SCOPED_TRACE(::testing::Message() << "machine=" << m);
    EXPECT_EQ(a.occupied_intervals, b.occupied_intervals);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.mean_violation_severity, b.mean_violation_severity);
    EXPECT_EQ(a.savings_ratio, b.savings_ratio);
    EXPECT_EQ(a.mean_prediction, b.mean_prediction);
    EXPECT_EQ(a.mean_limit, b.mean_limit);
  }
  EXPECT_EQ(restored.cell_savings_series, uninterrupted.cell_savings_series);
}

class StreamCheckpointTest : public ::testing::TestWithParam<int> {};

TEST_P(StreamCheckpointTest, RestoreContinuesBitIdentically) {
  const int case_index = GetParam();
  const CellTrace cell = RandomCell(500 + static_cast<uint64_t>(case_index));
  PredictorSpec spec;
  switch (case_index % 4) {
    case 0:
      spec = MaxSpec({NSigmaSpec(5.0, 3, 8), RcLikeSpec(99.0, 3, 8)});
      break;
    case 1:
      spec = AutopilotSpec(95.0, 1.2, 3, 8);
      break;
    case 2:
      spec = ChanceSpec(0.02, 3, 8);
      break;
    default:
      spec = MaxSpec({FlexSpec(95.0, 1.2, 3, 8), ChanceSpec(0.05, 3, 8)});
      break;
  }
  ReplayOptions options;
  options.num_shards = 4;

  StreamReplayer uninterrupted(cell, spec, options);
  uninterrupted.AdvanceToEnd();
  const SimResult expected = uninterrupted.Finish();
  const uint64_t expected_events = uninterrupted.Metrics().TotalEvents();

  const Interval cuts[] = {0, 1, cell.num_intervals / 2, cell.num_intervals - 1,
                           cell.num_intervals};
  for (const Interval cut : cuts) {
    SCOPED_TRACE(::testing::Message() << "cut=" << cut << "/" << cell.num_intervals);
    const std::string path = TempPath("ckpt_roundtrip.crfckpt");

    StreamReplayer first(cell, spec, options);
    first.Advance(cut);
    std::string error;
    ASSERT_TRUE(SaveCheckpoint(first, path, &error)) << error;

    auto restored = LoadCheckpoint(path, cell, options, &error);
    ASSERT_NE(restored, nullptr) << error;
    EXPECT_EQ(restored->next_tick(), cut);
    restored->AdvanceToEnd();
    ExpectResultsBitIdentical(restored->Finish(), expected);
    EXPECT_EQ(restored->Metrics().TotalEvents(), expected_events);
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, StreamCheckpointTest, ::testing::Range(0, 8));

// Builds one valid checkpoint (cut mid-run) and returns its bytes plus the
// context needed to attempt restores against it.
struct CheckpointFixture {
  CellTrace cell = RandomCell(321);
  PredictorSpec spec;
  ReplayOptions options;
  std::string path = TempPath("ckpt_corrupt.crfckpt");
  std::vector<uint8_t> bytes;

  explicit CheckpointFixture(PredictorSpec fixture_spec = NSigmaSpec(3.0, 3, 8))
      : spec(std::move(fixture_spec)) {
    options.num_shards = 4;
    StreamReplayer replayer(cell, spec, options);
    replayer.Advance(cell.num_intervals / 2);
    std::string error;
    EXPECT_TRUE(SaveCheckpoint(replayer, path, &error)) << error;
    bytes = ReadAll(path);
  }

  // Writes `mutated` to disk and expects LoadCheckpoint to reject it.
  void ExpectRejected(const std::vector<uint8_t>& mutated, const std::string& label) {
    SCOPED_TRACE(label);
    WriteAll(path, mutated);
    std::string error;
    EXPECT_EQ(LoadCheckpoint(path, cell, options, &error), nullptr);
    EXPECT_FALSE(error.empty());
  }
};

TEST(StreamCheckpointCorruptionTest, TruncationsAreRejected) {
  CheckpointFixture fixture;
  ASSERT_GT(fixture.bytes.size(), 64u);
  std::vector<size_t> lengths = {0, 1, 17, 63, 64, 65, fixture.bytes.size() - 1};
  for (size_t step = 97; step < fixture.bytes.size(); step += 997) {
    lengths.push_back(step);
  }
  for (const size_t length : lengths) {
    std::vector<uint8_t> truncated(fixture.bytes.begin(),
                                   fixture.bytes.begin() + static_cast<long>(length));
    fixture.ExpectRejected(truncated, "truncate to " + std::to_string(length));
  }
}

TEST(StreamCheckpointCorruptionTest, BitFlipsAreRejected) {
  CheckpointFixture fixture;
  // Magic, version, geometry fields, the trace-name byte right after the
  // header, the spec type byte, and a sample of payload bytes.
  std::vector<size_t> offsets = {0, 8, 16, 20, 64};
  const size_t name_length = fixture.cell.name.size();
  offsets.push_back(64 + name_length);  // First spec byte (the type tag).
  for (size_t off = 64 + name_length + 80; off < fixture.bytes.size(); off += 1013) {
    offsets.push_back(off);  // Payload bytes: caught by the FNV-1a checksum.
  }
  for (const size_t offset : offsets) {
    ASSERT_LT(offset, fixture.bytes.size());
    std::vector<uint8_t> flipped = fixture.bytes;
    flipped[offset] ^= 0x40;
    fixture.ExpectRejected(flipped, "flip byte " + std::to_string(offset));
  }
}

// The new families carry different per-machine state blobs (a machine-level
// order-statistics window for chance, a ratio window for flex): truncations
// and bit flips inside those payloads must be rejected the same way.
TEST(StreamCheckpointCorruptionTest, NewFamilyPayloadDamageIsRejected) {
  CheckpointFixture fixture(MaxSpec({ChanceSpec(0.02, 3, 8), FlexSpec(90.0, 1.5, 3, 8)}));
  ASSERT_GT(fixture.bytes.size(), 128u);
  for (size_t step = 97; step < fixture.bytes.size(); step += 613) {
    std::vector<uint8_t> truncated(fixture.bytes.begin(),
                                   fixture.bytes.begin() + static_cast<long>(step));
    fixture.ExpectRejected(truncated, "truncate to " + std::to_string(step));
  }
  for (size_t off = 64; off < fixture.bytes.size(); off += 487) {
    std::vector<uint8_t> flipped = fixture.bytes;
    flipped[off] ^= 0x08;
    fixture.ExpectRejected(flipped, "flip byte " + std::to_string(off));
  }
}

// The checksum stops random damage before the payload decoder sees it, so
// here each damaged payload is resealed with a fresh size and checksum: the
// SweepBank record (group counts, roster, windows, predictions) and the rest
// of the payload must then be rejected by their own structural checks — a
// truncation always, a bit flip whenever it breaks an invariant — and a
// flip that decodes must resume without crashing. The spec mixes the
// stateless borg-default node with the autopilot per-task windows.
TEST(StreamCheckpointCorruptionTest, ResealedPayloadDamageNeverCrashes) {
  CheckpointFixture fixture(MaxSpec({BorgDefaultSpec(0.9), AutopilotSpec(98.0, 1.1, 3, 8),
                                     NSigmaSpec(3.0, 3, 8)}));
  // Header layout: spec_length at byte 36, payload_bytes at 40, the payload
  // hash at 48.
  uint32_t spec_length = 0;
  std::memcpy(&spec_length, fixture.bytes.data() + 36, sizeof(spec_length));
  const size_t payload_start = 64 + fixture.cell.name.size() + spec_length;
  ASSERT_LT(payload_start, fixture.bytes.size());
  const auto reseal = [&](std::vector<uint8_t> bytes) {
    const uint64_t payload_bytes = bytes.size() - payload_start;
    const uint64_t hash =
        Fnv1a64(std::span<const uint8_t>(bytes.data() + payload_start, payload_bytes));
    std::memcpy(bytes.data() + 40, &payload_bytes, sizeof(payload_bytes));
    std::memcpy(bytes.data() + 48, &hash, sizeof(hash));
    return bytes;
  };
  // Resealing undamaged bytes must change nothing; otherwise every case
  // below would stop at the header or the checksum, not in the decoder.
  ASSERT_EQ(reseal(fixture.bytes), fixture.bytes);
  const std::string structural = "checkpoint payload is structurally invalid";
  for (size_t length = payload_start; length < fixture.bytes.size(); length += 131) {
    SCOPED_TRACE("truncate to " + std::to_string(length));
    WriteAll(fixture.path, reseal(std::vector<uint8_t>(
                               fixture.bytes.begin(), fixture.bytes.begin() + static_cast<long>(length))));
    std::string error;
    EXPECT_EQ(LoadCheckpoint(fixture.path, fixture.cell, fixture.options, &error), nullptr);
    EXPECT_EQ(error, structural);
  }
  int rejected = 0;
  int resumed = 0;
  for (size_t off = payload_start; off < fixture.bytes.size(); off += 37) {
    std::vector<uint8_t> flipped = fixture.bytes;
    flipped[off] ^= 0x10;
    WriteAll(fixture.path, reseal(std::move(flipped)));
    std::string error;
    auto restored = LoadCheckpoint(fixture.path, fixture.cell, fixture.options, &error);
    if (restored != nullptr) {
      restored->AdvanceToEnd();
      ++resumed;
    } else {
      EXPECT_EQ(error, structural) << "flip byte " << off;
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(resumed, 0);
}

// The spec blob sits outside the payload checksum, so the decoded spec is
// validated like a parsed one: an out-of-range or NaN knob, a non-max spec
// with components, a component count the blob cannot hold and max() nested
// past kMaxSpecDepth are each an error, never a SweepPlan CHECK failure.
TEST(StreamCheckpointCorruptionTest, DamagedSpecIsRejected) {
  CheckpointFixture fixture;  // n-sigma: 3, warm-up 3, history 8.
  const size_t name_end = 64 + fixture.cell.name.size();
  uint32_t spec_length = 0;
  std::memcpy(&spec_length, fixture.bytes.data() + 36, sizeof(spec_length));
  // One encoded spec node: type, five knobs, warm-up, history, component
  // count.
  constexpr size_t kNodeBytes = 1 + 5 * 8 + 4 + 4 + 4;
  ASSERT_EQ(spec_length, kNodeBytes);
  const auto expect_rejected = [&](const std::vector<uint8_t>& bytes, const char* label) {
    SCOPED_TRACE(label);
    WriteAll(fixture.path, bytes);
    std::string error;
    EXPECT_EQ(LoadCheckpoint(fixture.path, fixture.cell, fixture.options, &error), nullptr);
    EXPECT_EQ(error, "checkpoint predictor spec is corrupt");
  };
  const auto patched = [&](std::vector<uint8_t> bytes, size_t field, auto value) {
    std::memcpy(bytes.data() + name_end + field, &value, sizeof(value));
    return bytes;
  };
  constexpr size_t kNSigma = 1 + 2 * 8;
  constexpr size_t kWarmup = 1 + 5 * 8;
  constexpr size_t kHistory = kWarmup + 4;
  constexpr size_t kComponents = kHistory + 4;
  expect_rejected(patched(fixture.bytes, kNSigma, -1.0), "negative n");
  expect_rejected(patched(fixture.bytes, kNSigma, std::nan("")), "NaN n");
  expect_rejected(patched(fixture.bytes, kWarmup, int32_t{0}), "zero warm-up");
  expect_rejected(patched(fixture.bytes, kHistory, int32_t{2}), "history below warm-up");
  expect_rejected(patched(fixture.bytes, kComponents, uint32_t{1}), "n-sigma with a component");
  expect_rejected(
      patched(patched(fixture.bytes, 0, static_cast<uint8_t>(PredictorSpec::Type::kMax)),
              kComponents, uint32_t{0xFFFFFFFF}),
      "max() claiming 2^32-1 components");

  // max() nested one level past the limit, sealed with a consistent header.
  std::vector<uint8_t> deep_spec;
  for (int level = 0; level <= kMaxSpecDepth; ++level) {
    std::vector<uint8_t> node(fixture.bytes.begin() + static_cast<long>(name_end),
                              fixture.bytes.begin() + static_cast<long>(name_end + kNodeBytes));
    node[0] = static_cast<uint8_t>(PredictorSpec::Type::kMax);
    const uint32_t one = 1;
    std::memcpy(node.data() + kComponents, &one, sizeof(one));
    deep_spec.insert(deep_spec.end(), node.begin(), node.end());
  }
  deep_spec.insert(deep_spec.end(), fixture.bytes.begin() + static_cast<long>(name_end),
                   fixture.bytes.begin() + static_cast<long>(name_end + kNodeBytes));
  std::vector<uint8_t> deep(fixture.bytes.begin(),
                            fixture.bytes.begin() + static_cast<long>(name_end));
  deep.insert(deep.end(), deep_spec.begin(), deep_spec.end());
  deep.insert(deep.end(), fixture.bytes.begin() + static_cast<long>(name_end + kNodeBytes),
              fixture.bytes.end());
  const uint32_t deep_length = static_cast<uint32_t>(deep_spec.size());
  std::memcpy(deep.data() + 36, &deep_length, sizeof(deep_length));
  expect_rejected(deep, "max() nested past the limit");
}

// Every spec the parser accepts seals a checkpoint that resumes: the size
// limits at their edges (max() nested kMaxSpecDepth deep, kMaxSpecComponents
// components over every family) and the stateless families, whose bank
// keeps no roster.
TEST(StreamCheckpointSpecLimitsTest, EveryAcceptedSpecShapeResumes) {
  const char* families[] = {"n-sigma:2", "rc-like:90", "chance:0.05",   "flex:90",
                            "autopilot:95:1.2", "borg-default:0.8", "limit-sum"};
  std::string deep = "n-sigma:3";
  for (int i = 0; i < kMaxSpecDepth; ++i) {
    deep = "max(" + deep + (i % 2 == 0 ? ",rc-like:95)" : ")");
  }
  std::string wide = "max(";
  for (int i = 0; i < kMaxSpecComponents; ++i) {
    wide += std::string(i > 0 ? "," : "") + families[i % 7];
  }
  wide += ")";
  const CellTrace cell = RandomCell(4242);
  ReplayOptions options;
  options.num_shards = 4;
  for (const std::string& text :
       {deep, wide, std::string("max(borg-default:0.9,autopilot:98:1.1)"),
        std::string("borg-default:0.9"), std::string("limit-sum"), std::string("flex:90")}) {
    SCOPED_TRACE(text.substr(0, 60));
    std::string error;
    const std::optional<PredictorSpec> spec = ParsePredictorSpec(text, &error);
    ASSERT_TRUE(spec.has_value()) << error;

    StreamReplayer uninterrupted(cell, *spec, options);
    uninterrupted.AdvanceToEnd();
    const SimResult expected = uninterrupted.Finish();

    const std::string path = TempPath("ckpt_spec_limits.crfckpt");
    StreamReplayer first(cell, *spec, options);
    first.Advance(cell.num_intervals / 2);
    ASSERT_TRUE(SaveCheckpoint(first, path, &error)) << error;
    auto restored = LoadCheckpoint(path, cell, options, &error);
    ASSERT_NE(restored, nullptr) << error;
    restored->AdvanceToEnd();
    ExpectResultsBitIdentical(restored->Finish(), expected);
  }
}

TEST(StreamCheckpointCorruptionTest, GarbageAndEmptyFilesAreRejected) {
  CheckpointFixture fixture;
  fixture.ExpectRejected({}, "empty file");
  std::vector<uint8_t> garbage(300, 0x5A);
  fixture.ExpectRejected(garbage, "garbage file");
}

TEST(StreamCheckpointMismatchTest, WrongTraceIsRejected) {
  CheckpointFixture fixture;
  const CellTrace other = RandomCell(9876, "other_cell");
  std::string error;
  EXPECT_EQ(LoadCheckpoint(fixture.path, other, fixture.options, &error), nullptr);
  EXPECT_NE(error.find("does not match"), std::string::npos) << error;
}

TEST(StreamCheckpointMismatchTest, WrongShardCountIsRejectedWithHint) {
  CheckpointFixture fixture;
  ReplayOptions wrong = fixture.options;
  wrong.num_shards = 8;
  std::string error;
  EXPECT_EQ(LoadCheckpoint(fixture.path, fixture.cell, wrong, &error), nullptr);
  EXPECT_NE(error.find("--shards=4"), std::string::npos) << error;
}

// Version 1 lacked the chance target and the risk state; version 2 stored
// each percentile window's sorted chunk partition; version 3 stored one
// record per predictor family instead of one SweepBank record. Each payload
// would misparse as version 4, so both the loader and the header inspection
// must refuse the file with an error (never a CHECK abort).
TEST(StreamCheckpointMismatchTest, OldVersionIsRejected) {
  CheckpointFixture fixture;
  for (const uint8_t version : {1, 2, 3}) {
    SCOPED_TRACE(::testing::Message() << "version=" << int{version});
    // The header version is a little-endian u32 at offset 8 (after the magic).
    std::vector<uint8_t> old_version = fixture.bytes;
    old_version[8] = version;
    WriteAll(fixture.path, old_version);
    const std::string expected = "unsupported checkpoint version " + std::to_string(version);
    std::string error;
    EXPECT_EQ(LoadCheckpoint(fixture.path, fixture.cell, fixture.options, &error), nullptr);
    EXPECT_EQ(error, expected);
    CheckpointInfo info;
    error.clear();
    EXPECT_FALSE(ReadCheckpointInfo(fixture.path, &info, &error));
    EXPECT_EQ(error, expected);
  }
}

TEST(StreamCheckpointMismatchTest, MissingFileIsRejected) {
  CheckpointFixture fixture;
  std::string error;
  EXPECT_EQ(LoadCheckpoint(TempPath("does_not_exist.crfckpt"), fixture.cell, fixture.options,
                           &error),
            nullptr);
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

// A directory opens for reading under glibc and reports a huge size through
// fseek/ftell; the loader used to size its buffer from that and die in
// std::bad_alloc. Both readers must refuse anything but a regular file.
TEST(StreamCheckpointMismatchTest, DirectoryIsRejected) {
  CheckpointFixture fixture;
  const std::filesystem::path dir = TempPath("ckpt_dir");
  std::filesystem::create_directories(dir);
  std::string error;
  EXPECT_EQ(LoadCheckpoint(dir.string(), fixture.cell, fixture.options, &error), nullptr);
  EXPECT_NE(error.find("not a regular file"), std::string::npos) << error;
  CheckpointInfo info;
  error.clear();
  EXPECT_FALSE(ReadCheckpointInfo(dir.string(), &info, &error));
  EXPECT_NE(error.find("not a regular file"), std::string::npos) << error;
  std::filesystem::remove_all(dir);
}

TEST(StreamCheckpointInfoTest, HeaderInspectionReportsIdentity) {
  CheckpointFixture fixture;
  CheckpointInfo info;
  std::string error;
  ASSERT_TRUE(ReadCheckpointInfo(fixture.path, &info, &error)) << error;
  EXPECT_EQ(info.version, 4u);
  EXPECT_EQ(info.trace_name, fixture.cell.name);
  EXPECT_EQ(info.num_machines, fixture.cell.num_machines());
  EXPECT_EQ(info.num_intervals, fixture.cell.num_intervals);
  EXPECT_EQ(info.num_shards, 4);
  EXPECT_EQ(info.next_tick, fixture.cell.num_intervals / 2);
  EXPECT_EQ(info.spec_name, fixture.spec.Name());
  EXPECT_GT(info.payload_bytes, 0u);
}

// A seal that fails partway through its write — here the file-size limit
// cuts it short, as a crash mid-seal would — must leave the previous
// checkpoint at the path byte-identical and loadable, and no temporary file
// behind.
TEST(StreamCheckpointAtomicWriteTest, FailedOverwriteKeepsPreviousCheckpoint) {
  const CellTrace cell = RandomCell(777);
  const PredictorSpec spec = MaxSpec({NSigmaSpec(5.0, 3, 8), RcLikeSpec(99.0, 3, 8)});
  ReplayOptions options;
  options.num_shards = 4;
  const std::filesystem::path dir = TempPath("atomic_dir");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  const std::string path = (dir / "seal.crfckpt").string();

  StreamReplayer replayer(cell, spec, options);
  const Interval first_cut = cell.num_intervals / 4;
  replayer.Advance(first_cut);
  std::string error;
  ASSERT_TRUE(SaveCheckpoint(replayer, path, &error)) << error;
  const std::vector<uint8_t> previous = ReadAll(path);

  replayer.Advance(cell.num_intervals / 2);
  rlimit unlimited{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &unlimited), 0);
  rlimit capped = unlimited;
  capped.rlim_cur = previous.size() / 2;
  const auto previous_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &capped), 0);
  const bool overwritten = SaveCheckpoint(replayer, path, &error);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &unlimited), 0);
  std::signal(SIGXFSZ, previous_handler);
  EXPECT_FALSE(overwritten);
  EXPECT_NE(error.find("short write"), std::string::npos) << error;

  EXPECT_EQ(ReadAll(path), previous);
  auto restored = LoadCheckpoint(path, cell, options, &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(restored->next_tick(), first_cut);
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename(), "seal.crfckpt");
    ++files;
  }
  EXPECT_EQ(files, 1);

  // Without the cap the same overwrite lands whole.
  ASSERT_TRUE(SaveCheckpoint(replayer, path, &error)) << error;
  restored = LoadCheckpoint(path, cell, options, &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(restored->next_tick(), cell.num_intervals / 2);
  std::filesystem::remove_all(dir);
}

// The sealed bytes are a file format: a checkpoint written by one build must
// resume under the next. Pins the whole file of a fixed replay, so any
// change to what a machine, a bank or an accumulator serializes shows here.
TEST(StreamCheckpointGoldenTest, SealedBytesMatchRecordedHash) {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 4;
  GeneratorOptions generator;
  generator.num_intervals = kIntervalsPerDay;
  const CellTrace cell = GenerateCellTrace(profile, generator, Rng(2021));
  StreamReplayer replayer(cell, SimulationMaxSpec());
  replayer.Advance(100);
  const std::string path = TempPath("golden.crfckpt");
  std::string error;
  ASSERT_TRUE(SaveCheckpoint(replayer, path, &error)) << error;
  const std::vector<uint8_t> bytes = ReadAll(path);
  std::remove(path.c_str());
  EXPECT_EQ(Xxh64(bytes), 0xb3283c838f0563c6ull);
}

}  // namespace
}  // namespace crf
