// Crash-safe whole-file writes.
//
// WriteFileAtomic writes its parts, in order, to a temporary file in the
// target's directory, fsyncs it, renames it over the target, and fsyncs the
// directory so the rename itself is durable. A crash or an error at any
// point leaves either the previous file or the complete new one at `path` —
// never a truncated or torn mix — which is what lets a checkpoint overwrite
// the very file it was resumed from. A writer that fills the file some other
// way (StreamingTraceWriter maps it) creates AtomicTempPath(path) itself and
// finishes with CommitAtomicFile.

#ifndef CRF_UTIL_ATOMIC_FILE_H_
#define CRF_UTIL_ATOMIC_FILE_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>

namespace crf {

// Returns false with a diagnostic in `*error` (the temporary file is
// removed and `path` is untouched) on any failure.
bool WriteFileAtomic(const std::string& path,
                     std::initializer_list<std::span<const uint8_t>> parts, std::string* error);
bool WriteFileAtomic(const std::string& path, std::string_view text, std::string* error);

// A temporary path next to `path` (same directory, so the rename cannot
// cross filesystems), unique per process and call.
std::string AtomicTempPath(const std::string& path);

// Finishes an atomic write of `temp`, open as `fd`: fsyncs and closes `fd`,
// renames `temp` over `path` and fsyncs the directory. If the file never
// reaches `path`, `temp` is removed and `path` is untouched.
bool CommitAtomicFile(int fd, const std::string& temp, const std::string& path,
                      std::string* error);

}  // namespace crf

#endif  // CRF_UTIL_ATOMIC_FILE_H_
