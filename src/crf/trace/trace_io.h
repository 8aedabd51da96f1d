// Trace persistence: a text format and a zero-copy binary format.
//
// Text (v1) — line-oriented CSV so generated traces can be inspected or fed
// to external tooling. Rich within-interval stats are not persisted in text
// (they are cheap to regenerate and 9x the size); loading a text trace yields
// has_rich() == false.
//
//   # crf-trace v1
//   cell,<name>,<num_intervals>,<num_machines>,<dropped_tasks>
//   machine,<index>,<capacity>,<true_peak[0];true_peak[1];...>
//   task,<task_id>,<job_id>,<machine>,<start>,<limit>,<class>,<u0;u1;...>
//
// Binary (v1) — a versioned header followed by the sealed arena verbatim
// (trace.h describes the slab layout). Because the on-disk payload IS the
// in-memory layout, loading is one read into a 64-byte-aligned buffer plus
// header validation: no per-task parsing or reallocation. The rich ladder,
// dropped_tasks, and per-machine ground truth all round-trip exactly.
//
//   bytes [0,88)   header: magic "CRFTRBIN", version, flags (bit0 = rich),
//                  task/machine/sample/CSR counts, num_intervals,
//                  dropped_tasks, name length, arena byte size
//   then           cell name, zero-padded so the arena starts 64-aligned
//   then           the arena blob
//
// LoadCellTrace sniffs the leading magic and accepts either format; both
// loaders return nullopt on missing, malformed, or corrupted input
// (including truncated slabs and header/arena size mismatches).
//
// Binary traces can be loaded two ways (TraceLoadMode):
//   heap — read the arena into an aligned heap buffer (one fread);
//   mmap — map the file read-only and point the trace's spans straight into
//          the mapping (trace_internal::TraceArena::MapFromFile). Bit-for-bit
//          identical to the heap load — same bytes, same validation — but
//          near-zero-copy: only the metadata slabs the validator touches
//          become resident, the bulk usage slab pages in on demand, and
//          clean pages are shared across processes. The file must not be
//          modified while any CellTrace copy is alive.

#ifndef CRF_TRACE_TRACE_IO_H_
#define CRF_TRACE_TRACE_IO_H_

#include <optional>
#include <string>

#include "crf/trace/trace.h"

namespace crf {

// Write `cell` to `path` in the text / binary format. Paths are operator
// input: an I/O error returns false with `*error` naming the path. The binary
// writer is atomic (crf/util/atomic_file.h); the text one may leave a part.
bool SaveCellTrace(const CellTrace& cell, const std::string& path, std::string* error);
bool SaveCellTraceBinary(const CellTrace& cell, const std::string& path, std::string* error);

enum class TraceLoadMode {
  kAuto,    // heap load, either format (the historical default)
  kHeap,    // heap load; rejects text input
  kMapped,  // zero-copy mmap load; rejects text input
};

struct TraceLoadOptions {
  TraceLoadMode mode = TraceLoadMode::kAuto;
};

// Loads a trace in either format; returns nullopt if the file is missing or
// malformed.
std::optional<CellTrace> LoadCellTrace(const std::string& path);

// Checks by the header alone that `path` holds a trace: a valid binary
// header (magic, version, counts) whose arena size matches the file, or the
// text format's first line. Costs the same on any file size; the
// command-line parser runs it before any work. False with `*error` if not.
bool CheckCellTraceHeader(const std::string& path, std::string* error);

// Load with an explicit mode and precise diagnostics: on failure returns
// nullopt and, when `error` is non-null, a message naming what was wrong
// (truncation byte counts, corrupt offset-table entries, bad header fields).
std::optional<CellTrace> LoadCellTrace(const std::string& path, const TraceLoadOptions& options,
                                       std::string* error = nullptr);

}  // namespace crf

#endif  // CRF_TRACE_TRACE_IO_H_
