// Versioned binary checkpoint format for the streaming serve layer.
//
// Follows the .crftrace header style (trace_io.h): a fixed little-endian
// header with magic and version, variable-length identity strings, then a
// single FNV-1a-checksummed payload produced by StreamReplayer::SaveStateTo.
//
//   bytes [0,64)   header: magic "CRFCKPT1", version, flags,
//                  num_machines, num_shards, next_tick, num_intervals,
//                  trace name / spec blob lengths, payload size + hash
//   then           cell name (trace identity)
//   then           structurally-encoded PredictorSpec
//   then           the payload (per-shard counters and partial series,
//                  per-machine predictor state and metric accumulators)
//
// The payload serializes COMPLETE internal state — including the
// floating-point drift carried by incremental window sums — so a restored
// replayer continues bit-identically to an uninterrupted run (DESIGN.md §7).
// Restore validates, in order: header magic/version/geometry, that the
// supplied trace and options match the checkpoint's identity, the payload
// checksum, and finally every structural invariant of the decoded state
// (LoadStateFrom). Truncated, bit-flipped, or mismatched files are rejected
// with a diagnostic; nothing is ever CHECK-aborted on file content.

#ifndef CRF_SERVE_CHECKPOINT_H_
#define CRF_SERVE_CHECKPOINT_H_

#include <memory>
#include <string>

#include "crf/serve/replay.h"

namespace crf {

// Summary of a checkpoint file's header (crf checkpoint --info).
struct CheckpointInfo {
  uint32_t version = 0;
  int32_t num_machines = 0;
  int32_t num_shards = 0;
  Interval next_tick = 0;
  Interval num_intervals = 0;
  std::string trace_name;
  std::string spec_name;
  uint64_t payload_bytes = 0;
};

// Writes `replayer`'s state to `path`. Returns false and sets `error` on
// I/O failure. Must be called between Advance calls (interval boundary).
bool SaveCheckpoint(const StreamReplayer& replayer, const std::string& path,
                    std::string* error);

// Reads the checkpoint at `path` and resumes it against `cell`, which must
// be the same sealed trace the checkpoint was cut from (validated by name,
// machine count, and interval count; the restored rosters are additionally
// cross-checked against the trace). `options` must match the checkpointed
// shard geometry. Returns nullptr and sets `error` on any mismatch or
// corruption.
std::unique_ptr<StreamReplayer> LoadCheckpoint(const std::string& path, const CellTrace& cell,
                                               const ReplayOptions& options,
                                               std::string* error);

// Checks by the fixed header alone that `path` is a regular file holding a
// checkpoint of this version whose header fields are sane and imply the
// file's size. Reads 64 bytes, so it costs the same on any file; the
// command-line parser runs it before any work. Returns false and sets
// `error` otherwise.
bool CheckCheckpointHeader(const std::string& path, std::string* error);

// Header-only inspection (does not decode the payload beyond the checksum).
// Returns false and sets `error` if the file is missing or malformed.
bool ReadCheckpointInfo(const std::string& path, CheckpointInfo* info, std::string* error);

}  // namespace crf

#endif  // CRF_SERVE_CHECKPOINT_H_
