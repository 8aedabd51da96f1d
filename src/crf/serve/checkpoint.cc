#include "crf/serve/checkpoint.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "crf/util/atomic_file.h"
#include "crf/util/byte_io.h"

namespace crf {
namespace {

constexpr char kMagic[8] = {'C', 'R', 'F', 'C', 'K', 'P', 'T', '1'};
// Version 2: the spec encoding gained the chance-constrained `target` knob
// and per-machine payloads carry full RiskAccumulator state (tail quantile
// estimators) instead of six scalar counters. Version-1 files are rejected
// with a clear error rather than misparsed.
// Version 3: a percentile-window record (TaskHistory, chance and flex
// windows) is capacity, head, ring, running sum and refresh countdown; the
// sorted chunk partition is gone and the sorted view is rebuilt from the
// ring. Version-2 files are rejected the same way.
// Version 4: a machine's predictor state is one SweepBank record (group
// counts, roster, warm-up counters, every window, the last predictions)
// instead of one record per predictor family. Version-3 files are rejected
// the same way.
constexpr uint32_t kVersion = 4;
constexpr uint64_t kMaxNameLength = 4096;
constexpr uint64_t kMaxSpecLength = 1 << 20;
constexpr uint64_t kMaxPayloadLength = uint64_t{1} << 40;

// Fixed-size little-endian header preceding the identity strings + payload.
struct CheckpointHeader {
  char magic[8];
  uint32_t version;
  uint32_t flags;
  int32_t num_machines;
  int32_t num_shards;
  int32_t next_tick;
  int32_t num_intervals;
  uint32_t name_length;
  uint32_t spec_length;
  uint64_t payload_bytes;
  uint64_t payload_hash;
  uint64_t reserved;
};
static_assert(sizeof(CheckpointHeader) == 64, "checkpoint header layout drifted");

// Structural PredictorSpec encoding: every knob, recursively. The name alone
// would be ambiguous (it omits warm-up/history) and not machine-parseable.
void WriteSpec(ByteWriter& out, const PredictorSpec& spec) {
  out.Write<uint8_t>(static_cast<uint8_t>(spec.type));
  out.Write<double>(spec.phi);
  out.Write<double>(spec.percentile);
  out.Write<double>(spec.n_sigma);
  out.Write<double>(spec.margin);
  out.Write<double>(spec.target);
  out.Write<int32_t>(spec.config.min_num_samples);
  out.Write<int32_t>(spec.config.max_num_samples);
  out.Write<uint32_t>(static_cast<uint32_t>(spec.components.size()));
  for (const PredictorSpec& component : spec.components) {
    WriteSpec(out, component);
  }
}

// Only the depth limit (predictor_factory.h) is checked while reading: it
// bounds the recursion, and components are appended one at a time, so the
// spec blob's length bounds the allocation. The caller validates the whole
// decoded spec with ValidatePredictorSpec, so a corrupted file produces an
// error, not a SweepPlan CHECK failure.
bool ReadSpec(ByteReader& in, PredictorSpec& spec, int depth) {
  const uint8_t type = in.Read<uint8_t>();
  spec.phi = in.Read<double>();
  spec.percentile = in.Read<double>();
  spec.n_sigma = in.Read<double>();
  spec.margin = in.Read<double>();
  spec.target = in.Read<double>();
  spec.config.min_num_samples = in.Read<int32_t>();
  spec.config.max_num_samples = in.Read<int32_t>();
  const uint32_t num_components = in.Read<uint32_t>();
  if (!in.ok() || type > static_cast<uint8_t>(PredictorSpec::Type::kMax) ||
      depth > kMaxSpecDepth) {
    in.Fail();
    return false;
  }
  spec.type = static_cast<PredictorSpec::Type>(type);
  for (uint32_t i = 0; i < num_components; ++i) {
    if (!ReadSpec(in, spec.components.emplace_back(), depth + 1)) {
      return false;
    }
  }
  return true;
}

bool SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

// Only a regular file has a size to read: a directory opens under glibc
// but reports a nonsense length, and a pipe or device has none. Returns the
// open file and its size in `*size`, or nullptr with `*error` set.
FILE* OpenRegularFile(const std::string& path, uint64_t* size, std::string* error) {
  FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    SetError(error, "cannot open checkpoint " + path + ": " + std::strerror(errno));
    return nullptr;
  }
  struct stat status{};
  if (::fstat(::fileno(file), &status) != 0 || !S_ISREG(status.st_mode)) {
    std::fclose(file);
    SetError(error, "checkpoint " + path + " is not a regular file");
    return nullptr;
  }
  *size = static_cast<uint64_t>(status.st_size);
  return file;
}

bool ReadFile(const std::string& path, std::vector<uint8_t>& out, std::string* error) {
  uint64_t size = 0;
  FILE* file = OpenRegularFile(path, &size, error);
  if (file == nullptr) {
    return false;
  }
  out.resize(static_cast<size_t>(size));
  const bool ok = out.empty() || std::fread(out.data(), 1, out.size(), file) == out.size();
  std::fclose(file);
  if (!ok) {
    return SetError(error, "cannot read checkpoint " + path);
  }
  return true;
}

// Validates the fixed header against the size of the whole file.
bool CheckHeader(const CheckpointHeader& header, uint64_t file_size, std::string* error) {
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return SetError(error, "not a checkpoint file (bad magic)");
  }
  if (header.version != kVersion) {
    return SetError(error,
                    "unsupported checkpoint version " + std::to_string(header.version));
  }
  if (header.num_machines <= 0 || header.num_shards <= 0 || header.num_intervals <= 0 ||
      header.next_tick < 0 || header.next_tick > header.num_intervals ||
      header.name_length > kMaxNameLength || header.spec_length > kMaxSpecLength ||
      header.payload_bytes > kMaxPayloadLength) {
    return SetError(error, "checkpoint header is corrupt");
  }
  const uint64_t expected_size = sizeof(CheckpointHeader) + header.name_length +
                                 header.spec_length + header.payload_bytes;
  if (file_size != expected_size) {
    return SetError(error, "checkpoint truncated: expected " +
                               std::to_string(expected_size) + " bytes, found " +
                               std::to_string(file_size));
  }
  return true;
}

// Parses and validates the fixed header + identity strings. On success fills
// `header`, `trace_name`, `spec` and sets `payload` to the checksummed
// payload bytes.
bool ParseCheckpoint(const std::vector<uint8_t>& bytes, CheckpointHeader& header,
                     std::string& trace_name, PredictorSpec& spec,
                     std::span<const uint8_t>& payload, std::string* error) {
  if (bytes.size() < sizeof(CheckpointHeader)) {
    return SetError(error, "checkpoint truncated: shorter than the header");
  }
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (!CheckHeader(header, bytes.size(), error)) {
    return false;
  }
  const uint8_t* cursor = bytes.data() + sizeof(CheckpointHeader);
  trace_name.assign(reinterpret_cast<const char*>(cursor), header.name_length);
  cursor += header.name_length;
  ByteReader spec_reader(std::span<const uint8_t>(cursor, header.spec_length));
  if (!ReadSpec(spec_reader, spec, 0) || !spec_reader.AtEnd() ||
      !ValidatePredictorSpec(spec, nullptr)) {
    return SetError(error, "checkpoint predictor spec is corrupt");
  }
  cursor += header.spec_length;
  payload = std::span<const uint8_t>(cursor, header.payload_bytes);
  if (Fnv1a64(payload) != header.payload_hash) {
    return SetError(error, "checkpoint payload checksum mismatch (corrupted file)");
  }
  return true;
}

}  // namespace

bool SaveCheckpoint(const StreamReplayer& replayer, const std::string& path,
                    std::string* error) {
  ByteWriter payload;
  replayer.SaveStateTo(payload);
  ByteWriter spec_blob;
  WriteSpec(spec_blob, replayer.spec());
  const std::string& trace_name = replayer.cell().name;

  CheckpointHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersion;
  header.flags = 0;
  header.num_machines = replayer.cell().num_machines();
  header.num_shards = replayer.options().num_shards;
  header.next_tick = replayer.next_tick();
  header.num_intervals = replayer.cell().num_intervals;
  header.name_length = static_cast<uint32_t>(trace_name.size());
  header.spec_length = static_cast<uint32_t>(spec_blob.size());
  header.payload_bytes = payload.size();
  header.payload_hash = Fnv1a64(payload.bytes());

  // Atomic: a crash or failed write mid-seal leaves the previous checkpoint
  // at `path` intact, so a run may seal over the file it resumed from.
  std::string write_error;
  if (!WriteFileAtomic(
          path,
          {std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(&header), sizeof(header)),
           std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(trace_name.data()),
                                    trace_name.size()),
           spec_blob.bytes(), payload.bytes()},
          &write_error)) {
    return SetError(error, "cannot write checkpoint: " + write_error);
  }
  return true;
}

std::unique_ptr<StreamReplayer> LoadCheckpoint(const std::string& path, const CellTrace& cell,
                                               const ReplayOptions& options,
                                               std::string* error) {
  std::vector<uint8_t> bytes;
  if (!ReadFile(path, bytes, error)) {
    return nullptr;
  }
  CheckpointHeader header{};
  std::string trace_name;
  PredictorSpec spec;
  std::span<const uint8_t> payload;
  if (!ParseCheckpoint(bytes, header, trace_name, spec, payload, error)) {
    return nullptr;
  }
  if (trace_name != cell.name || header.num_machines != cell.num_machines() ||
      header.num_intervals != cell.num_intervals) {
    SetError(error, "checkpoint was cut from trace '" + trace_name + "' (" +
                        std::to_string(header.num_machines) + " machines, " +
                        std::to_string(header.num_intervals) +
                        " intervals), which does not match the supplied trace");
    return nullptr;
  }
  if (header.num_shards != options.num_shards) {
    SetError(error, "checkpoint has " + std::to_string(header.num_shards) +
                        " shards; rerun with --shards=" + std::to_string(header.num_shards));
    return nullptr;
  }
  auto replayer = std::make_unique<StreamReplayer>(cell, spec, options);
  ByteReader reader(payload);
  if (!replayer->LoadStateFrom(reader, header.next_tick) || !reader.AtEnd()) {
    SetError(error, "checkpoint payload is structurally invalid");
    return nullptr;
  }
  return replayer;
}

bool CheckCheckpointHeader(const std::string& path, std::string* error) {
  uint64_t size = 0;
  FILE* file = OpenRegularFile(path, &size, error);
  if (file == nullptr) {
    return false;
  }
  CheckpointHeader header{};
  const bool read = size >= sizeof(header) && std::fread(&header, sizeof(header), 1, file) == 1;
  std::fclose(file);
  if (!read) {
    return SetError(error, "checkpoint truncated: shorter than the header");
  }
  return CheckHeader(header, size, error);
}

bool ReadCheckpointInfo(const std::string& path, CheckpointInfo* info, std::string* error) {
  std::vector<uint8_t> bytes;
  if (!ReadFile(path, bytes, error)) {
    return false;
  }
  CheckpointHeader header{};
  std::string trace_name;
  PredictorSpec spec;
  std::span<const uint8_t> payload;
  if (!ParseCheckpoint(bytes, header, trace_name, spec, payload, error)) {
    return false;
  }
  if (info != nullptr) {
    info->version = header.version;
    info->num_machines = header.num_machines;
    info->num_shards = header.num_shards;
    info->next_tick = header.next_tick;
    info->num_intervals = header.num_intervals;
    info->trace_name = trace_name;
    info->spec_name = spec.Name();
    info->payload_bytes = header.payload_bytes;
  }
  return true;
}

}  // namespace crf
