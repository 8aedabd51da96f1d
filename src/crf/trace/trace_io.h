// Trace persistence: one on-disk format, the zero-copy binary CRFTRBIN, and
// a text export.
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
// Binary traces are written whole by SaveCellTraceBinary or machine block by
// machine block by GenerateCellTraceToFile (crf/trace/generator.h), and
// loaded two ways (TraceLoadMode):
//   heap — read the arena into an aligned heap buffer (one fread);
//   mmap — map the file read-only and point the trace's spans straight into
//          the mapping (trace_internal::TraceArena::MapFromFile). Bit-for-bit
//          identical to the heap load — same bytes, same validation — but
//          near-zero-copy: only the metadata slabs the validator touches
//          become resident, the bulk usage slab pages in on demand, and
//          clean pages are shared across processes. The file must not be
//          modified while any CellTrace copy is alive.
// Both return nullopt on missing, malformed, or corrupted input (including
// truncated slabs and header/arena size mismatches).
//
// Text — export only, so a trace can be inspected or fed to external
// tooling; nothing in crf reads it back, and a loader given one says so.
// Line-oriented CSV; floats print with %.9g and doubles with %.17g, which
// round-trip exactly. The rich within-interval stats are not exported.
//
//   # crf-trace v1
//   cell,<name>,<num_intervals>,<num_machines>,<dropped_tasks>
//   machine,<index>,<capacity>,<true_peak[0];true_peak[1];...>
//   task,<task_id>,<job_id>,<machine>,<start>,<limit>,<class>,<u0;u1;...>

#ifndef CRF_TRACE_TRACE_IO_H_
#define CRF_TRACE_TRACE_IO_H_

#include <optional>
#include <string>

#include "crf/trace/trace.h"

namespace crf {

// Write `cell` to `path` in the binary format / export it as text. Paths are
// operator input: an I/O error returns false with `*error` naming the path.
// Both writers are atomic (crf/util/atomic_file.h): `path` ends up holding
// its previous contents or the whole new file, so a trace can be exported
// over the very file it was loaded (or mapped) from.
bool SaveCellTraceBinary(const CellTrace& cell, const std::string& path, std::string* error);
bool ExportCellTraceText(const CellTrace& cell, const std::string& path, std::string* error);

enum class TraceLoadMode {
  kHeap,    // read the arena into a heap buffer
  kMapped,  // zero-copy mmap load
};

struct TraceLoadOptions {
  TraceLoadMode mode = TraceLoadMode::kHeap;
};

// Loads a binary trace onto the heap; returns nullopt if the file is missing
// or malformed.
std::optional<CellTrace> LoadCellTrace(const std::string& path);

// Checks by the header alone that `path` holds a binary trace: a valid
// header (magic, version, counts) whose arena size matches the file. Costs
// the same on any file size; the command-line parser runs it before any
// work. False with `*error` if not.
bool CheckCellTraceHeader(const std::string& path, std::string* error);

// Load with an explicit mode and precise diagnostics: on failure returns
// nullopt and, when `error` is non-null, a message naming what was wrong
// (truncation byte counts, corrupt offset-table entries, bad header fields,
// a text export).
std::optional<CellTrace> LoadCellTrace(const std::string& path, const TraceLoadOptions& options,
                                       std::string* error = nullptr);

}  // namespace crf

#endif  // CRF_TRACE_TRACE_IO_H_
