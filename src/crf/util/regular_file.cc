#include "crf/util/regular_file.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>

namespace crf {

std::FILE* OpenRegularFile(const std::string& path, uint64_t* size, std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (error != nullptr) {
      *error = "cannot open " + path + ": " + std::strerror(errno);
    }
    return nullptr;
  }
  struct stat status{};
  if (::fstat(::fileno(file), &status) != 0 || !S_ISREG(status.st_mode)) {
    std::fclose(file);
    if (error != nullptr) {
      *error = path + " is not a regular file";
    }
    return nullptr;
  }
  *size = static_cast<uint64_t>(status.st_size);
  return file;
}

}  // namespace crf
