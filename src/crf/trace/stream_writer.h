// StreamingTraceWriter: seal a binary .crftrace machine block by machine
// block, without ever materializing the whole arena in memory.
//
// The heap path (GenerateCellTrace + SaveCellTraceBinary) holds the whole
// arena in memory while it writes the file; at cloud scale (100k+
// machines) that is tens of gigabytes. The streaming writer makes the
// output file itself the arena. It sizes the file up front from the
// placement metadata (O(tasks), known before any usage sample exists), maps
// it writable (MAP_SHARED), writes every metadata column once through the
// shared ArenaWriter, and hands out that writer's mutable rows into the
// mapped usage/rich/true-peak slabs so producers generate samples directly
// into the file. RetireMachines flushes a finished block of machines
// (msync) and evicts its pages (madvise), so resident memory tracks the
// block in flight, not the cell.
//
// The write is crash-safe like WriteFileAtomic: the mapped file is a
// temporary sibling of the target, and only Finish syncs it and renames it
// over the target. A killed process or a writer destroyed without Finish
// leaves the target's previous contents (or no file) in place, never a
// partial trace that would load as valid.
//
// Machine-major invariant: rows must be numbered so machine_of is
// non-decreasing — machine m's tasks are one contiguous row range and its
// usage samples one contiguous slab run (the CSR is the identity). This is
// what makes block retirement page-clean, and it is the layout CellTrace's
// MachineRowsContiguous / DropMachinePages exploit on the read side.
// The streaming generator (GenerateCellTraceToFile) numbers its rows in
// this order (TraceColumns::order).

#ifndef CRF_TRACE_STREAM_WRITER_H_
#define CRF_TRACE_STREAM_WRITER_H_

#include <cstdint>
#include <string>

#include "crf/trace/trace_builder.h"

namespace crf {

class StreamingTraceWriter {
 public:
  // Creates a temporary file next to `path`, sizes it for the full trace,
  // maps it, and writes the header plus every metadata column. On failure
  // ok() is false and `error` names the cause; `path` is untouched and the
  // destructor removes the temporary file.
  StreamingTraceWriter(const TraceColumns& spec, const std::string& path, std::string* error);
  ~StreamingTraceWriter();
  StreamingTraceWriter(const StreamingTraceWriter&) = delete;
  StreamingTraceWriter& operator=(const StreamingTraceWriter&) = delete;

  bool ok() const { return map_ != nullptr; }
  uint64_t file_bytes() const { return file_bytes_; }

  // The file's column writer: mutable rows straight into the mapped file.
  // A row stays writable for the writer's whole lifetime, but writing into
  // a retired machine's row drags its pages back in — fill blocks in
  // machine order, then retire them.
  ArenaWriter& rows() { return rows_; }

  // Flushes machines [begin, end)'s bulk rows (usage, rich, true peak) to
  // the file and drops their pages from the resident set. Call with
  // monotonically increasing, fully written blocks.
  void RetireMachines(int begin_machine, int end_machine);

  // Syncs the whole file to disk, unmaps it, renames it over `path` and
  // syncs the directory. Returns false (with `error`) on I/O failure, with
  // `path` untouched. The writer is unusable afterwards.
  bool Finish(std::string* error);

 private:
  void FlushAndDropArenaRange(uint64_t arena_begin, uint64_t arena_end);
  void Unmap();

  std::string path_;       // the target, replaced only by Finish
  std::string temp_path_;  // the mapped file; empty once renamed or removed
  int fd_ = -1;            // open until Finish, which fsyncs it

  ArenaWriter rows_;
  uint64_t file_bytes_ = 0;
  std::byte* map_ = nullptr;   // whole-file writable mapping
  std::byte* arena_ = nullptr; // == map_ + the header and name bytes
};

}  // namespace crf

#endif  // CRF_TRACE_STREAM_WRITER_H_
