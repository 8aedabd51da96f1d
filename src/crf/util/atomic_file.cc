#include "crf/util/atomic_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

namespace crf {
namespace {

// Records "<what>: <errno text>" — call right after the failing syscall.
bool Fail(std::string* error, const std::string& what) {
  if (error != nullptr) {
    *error = what + ": " + std::strerror(errno);
  }
  return false;
}

// The directory the temporary file and the rename live in.
std::string DirectoryOf(const std::string& path) {
  const size_t slash = path.rfind('/');
  return slash == std::string::npos ? "." : slash == 0 ? "/" : path.substr(0, slash);
}

}  // namespace

bool WriteAll(int fd, std::span<const uint8_t> bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n > 0) {
      bytes = bytes.subspan(static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      return false;
    }
  }
  return true;
}

bool CheckAtomicTarget(const std::string& path, std::string* error) {
  const std::string directory = DirectoryOf(path);
  struct stat status{};
  if (::stat(directory.c_str(), &status) != 0) {
    return Fail(error, "cannot write " + path + ": directory " + directory);
  }
  if (!S_ISDIR(status.st_mode)) {
    errno = ENOTDIR;
    return Fail(error, "cannot write " + path + ": " + directory);
  }
  if (::access(directory.c_str(), W_OK | X_OK) != 0) {
    return Fail(error, "cannot write " + path + ": directory " + directory);
  }
  if (::stat(path.c_str(), &status) == 0 && S_ISDIR(status.st_mode)) {
    errno = EISDIR;
    return Fail(error, "cannot write " + path);
  }
  return true;
}

std::string AtomicTempPath(const std::string& path) {
  // Unique per process and call, so concurrent writers never share one.
  static std::atomic<uint64_t> counter{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

bool CommitAtomicFile(int fd, const std::string& temp, const std::string& path,
                      std::string* error) {
  bool ok = ::fsync(fd) == 0 || Fail(error, "cannot fsync " + temp);
  if (::close(fd) != 0 && ok) {
    ok = Fail(error, "cannot close " + temp);
  }
  if (ok && ::rename(temp.c_str(), path.c_str()) != 0) {
    ok = Fail(error, "cannot rename " + temp + " over " + path);
  }
  if (!ok) {
    ::unlink(temp.c_str());
    return false;
  }
  // The rename is durable only once the directory entry is.
  const std::string directory = DirectoryOf(path);
  const int dir_fd = ::open(directory.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) {
    return Fail(error, "cannot open directory " + directory);
  }
  ok = ::fsync(dir_fd) == 0 || Fail(error, "cannot fsync directory " + directory);
  ::close(dir_fd);
  return ok;
}

bool WriteFileAtomic(const std::string& path,
                     std::initializer_list<std::span<const uint8_t>> parts, std::string* error) {
  const std::string temp = AtomicTempPath(path);
  const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) {
    return Fail(error, "cannot create " + temp);
  }
  for (const std::span<const uint8_t> part : parts) {
    if (!WriteAll(fd, part)) {
      Fail(error, "short write to " + temp);
      ::close(fd);
      ::unlink(temp.c_str());
      return false;
    }
  }
  return CommitAtomicFile(fd, temp, path, error);
}

bool WriteFileAtomic(const std::string& path, std::string_view text, std::string* error) {
  return WriteFileAtomic(
      path, {std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(text.data()), text.size())},
      error);
}

}  // namespace crf
