// StreamingTraceWriter: seal a binary .crftrace machine block by machine
// block, without ever materializing the whole arena in memory.
//
// The batch path (CellTraceBuilder::Seal + SaveCellTraceBinary) holds three
// copies of the bulk data at its peak: the per-task usage vectors, the
// sealed arena, and the file under write. At cloud scale (100k+ machines)
// that is tens of gigabytes. The streaming writer inverts the flow: the
// output file itself IS the arena. It sizes the file up front from the
// placement metadata (which is O(tasks), known before any usage sample
// exists), maps it writable (MAP_SHARED), writes every metadata column once,
// and hands out mutable spans into the mapped usage/rich/true-peak slabs so
// producers generate samples directly into the file. RetireMachines flushes
// a finished block of machines (msync) and evicts its pages (madvise), so
// resident memory tracks the block in flight, not the cell.
//
// The write is crash-safe like WriteFileAtomic: the mapped file is a
// temporary sibling of the target, and only Finish syncs it and renames it
// over the target. A killed process or a writer destroyed without Finish
// leaves the target's previous contents (or no file) in place, never a
// partial trace that would load as valid.
//
// Machine-major invariant: tasks must be numbered so machine_of is
// non-decreasing — machine m's tasks are exactly the index range
// [machine_begin(m), machine_begin(m + 1)) and its usage samples one
// contiguous slab run (the CSR index is the identity permutation). This is
// what makes block retirement page-clean, and it is the layout CellTrace's
// MachineRowsContiguous / DropMachinePages exploit on the read side.
// The streaming generator (GenerateCellTraceToFile) renumbers its tasks into
// this order before writing.

#ifndef CRF_TRACE_STREAM_WRITER_H_
#define CRF_TRACE_STREAM_WRITER_H_

#include <cstdint>
#include <span>
#include <string>

#include "crf/trace/trace.h"

namespace crf {

// Borrowed views of the placement metadata, sized by the task count
// (per-task) or the machine count (per-machine). The writer copies what it
// needs during construction; the spans need only stay valid for the
// constructor call.
struct StreamTraceSpec {
  std::string name;
  Interval num_intervals = 0;
  int64_t dropped_tasks = 0;
  bool rich = false;

  // Per-task, machine-major (machine_of non-decreasing, values in
  // [0, capacity.size())). Task i's usage series has runtime[i] samples.
  std::span<const TaskId> task_id;
  std::span<const JobId> job_id;
  std::span<const int32_t> machine_of;
  std::span<const Interval> start;
  std::span<const uint8_t> sched_class;
  std::span<const double> limit;
  std::span<const Interval> runtime;

  // Per-machine. Every machine's true-peak series has num_intervals samples.
  std::span<const double> capacity;
};

class StreamingTraceWriter {
 public:
  // Creates a temporary file next to `path`, sizes it for the full trace,
  // maps it, and writes the header plus every metadata column. On failure
  // ok() is false and `error` names the cause; `path` is untouched and the
  // destructor removes the temporary file.
  StreamingTraceWriter(const StreamTraceSpec& spec, const std::string& path, std::string* error);
  ~StreamingTraceWriter();
  StreamingTraceWriter(const StreamingTraceWriter&) = delete;
  StreamingTraceWriter& operator=(const StreamingTraceWriter&) = delete;

  bool ok() const { return map_ != nullptr; }
  uint64_t file_bytes() const { return file_bytes_; }

  // Machine m's first task index (machine-major numbering).
  int32_t machine_begin(int machine_index) const {
    return static_cast<int32_t>(csr_off_[machine_index]);
  }

  // Mutable rows straight into the mapped file. A row stays writable for the
  // writer's whole lifetime, but writing into a retired machine's row drags
  // its pages back in — fill blocks in machine order, then retire them.
  std::span<float> usage_row(int32_t task_index);
  std::span<float> rich_row(int32_t task_index, RichColumn column);
  std::span<float> true_peak_row(int machine_index);

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

  bool rich_ = false;
  uint64_t file_bytes_ = 0;
  uint64_t arena_offset_ = 0;
  uint64_t usage_samples_ = 0;

  std::byte* map_ = nullptr;   // whole-file writable mapping
  std::byte* arena_ = nullptr; // == map_ + arena_offset_

  // Pointers into the mapped metadata slabs (written once, read for row
  // geometry; never retired).
  const uint64_t* usage_off_ = nullptr;
  const uint64_t* peak_off_ = nullptr;
  const uint64_t* csr_off_ = nullptr;
  float* usage_slab_ = nullptr;
  float* rich_slab_ = nullptr;
  float* peak_slab_ = nullptr;
  uint64_t usage_slab_offset_ = 0;  // arena-relative byte offsets
  uint64_t rich_slab_offset_ = 0;
  uint64_t peak_slab_offset_ = 0;
};

}  // namespace crf

#endif  // CRF_TRACE_STREAM_WRITER_H_
