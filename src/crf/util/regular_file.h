// Opening an input file that must be a regular file.
//
// Only a regular file has a size to read: a directory opens under glibc but
// reports a nonsense length and fails the first read, and a pipe or device
// has no size at all. Every binary loader (traces, checkpoints) opens its
// input here, so a directory is reported as what it is.

#ifndef CRF_UTIL_REGULAR_FILE_H_
#define CRF_UTIL_REGULAR_FILE_H_

#include <cstdint>
#include <cstdio>
#include <string>

namespace crf {

// Opens `path` for binary reading and stores its size in `*size`. Returns
// nullptr with a diagnostic in `*error` (if non-null) when the file cannot
// be opened or is not a regular file.
std::FILE* OpenRegularFile(const std::string& path, uint64_t* size, std::string* error);

}  // namespace crf

#endif  // CRF_UTIL_REGULAR_FILE_H_
