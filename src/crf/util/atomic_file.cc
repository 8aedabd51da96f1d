#include "crf/util/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

namespace crf {
namespace {

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

}  // namespace

bool WriteFileAtomic(const std::string& path,
                     std::initializer_list<std::span<const uint8_t>> parts, std::string* error) {
  // Unique per process and call, so concurrent writers never share one.
  static std::atomic<uint64_t> counter{0};
  const std::string temp = path + ".tmp." + std::to_string(::getpid()) + "." +
                           std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
  const size_t slash = path.rfind('/');
  const std::string directory =
      slash == std::string::npos ? "." : slash == 0 ? "/" : path.substr(0, slash);
  // Records "<what>: <errno text>" — call right after the failing syscall.
  const auto fail = [error](const std::string& what) {
    *error = what + ": " + std::strerror(errno);
    return false;
  };

  const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) {
    return fail("cannot create " + temp);
  }
  bool ok = true;
  for (const std::span<const uint8_t> part : parts) {
    if (ok && !WriteAll(fd, part)) {
      ok = fail("short write to " + temp);
    }
  }
  if (ok && ::fsync(fd) != 0) {
    ok = fail("cannot fsync " + temp);
  }
  if (::close(fd) != 0 && ok) {
    ok = fail("cannot close " + temp);
  }
  if (ok && ::rename(temp.c_str(), path.c_str()) != 0) {
    ok = fail("cannot rename " + temp + " over " + path);
  }
  if (!ok) {
    ::unlink(temp.c_str());
    return false;
  }
  // The rename is durable only once the directory entry is.
  const int dir_fd = ::open(directory.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) {
    return fail("cannot open directory " + directory);
  }
  ok = ::fsync(dir_fd) == 0 || fail("cannot fsync directory " + directory);
  ::close(dir_fd);
  return ok;
}

bool WriteFileAtomic(const std::string& path, std::string_view text, std::string* error) {
  return WriteFileAtomic(
      path, {std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(text.data()), text.size())},
      error);
}

}  // namespace crf
