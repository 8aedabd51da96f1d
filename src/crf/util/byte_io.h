// Bounds-checked binary serialization primitives for checkpoint payloads.
//
// ByteWriter appends little-endian POD values and length-prefixed vectors to
// a growable buffer; ByteReader walks the same encoding with every read
// bounds-checked. A reader never throws or aborts on malformed input — it
// latches a failure flag and returns zeros, so callers can decode untrusted
// bytes (a truncated or bit-flipped checkpoint) and reject them with one
// ok() check at the end. Length prefixes are validated against an explicit
// element cap before any allocation, so a corrupted length cannot trigger a
// multi-gigabyte resize.
//
// Two 64-bit hashes live here: Fnv1a64 (byte-serial; the CRFCKPT1 payload
// check and the machine-query roster hash) and Xxh64 (word-parallel; the
// CRFNET frame check, where the checksum sits on every request's critical
// path).

#ifndef CRF_UTIL_BYTE_IO_H_
#define CRF_UTIL_BYTE_IO_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace crf {

class ByteWriter {
 public:
  ByteWriter() = default;
  // Appends to `buffer` (its bytes are kept), so a caller can encode into a
  // reusable buffer and take it back with Release() without a copy.
  explicit ByteWriter(std::vector<uint8_t> buffer) : bytes_(std::move(buffer)) {}

  // Appends the raw little-endian bytes of a trivially copyable scalar.
  template <typename T>
  void Write(T value) {
    static_assert(std::is_trivially_copyable_v<T> && !std::is_pointer_v<T>);
    std::memcpy(Extend(sizeof(T)), &value, sizeof(T));
  }

  // Appends a u64 element count followed by the elements.
  template <typename T>
  void WriteVec(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T> && !std::is_pointer_v<T>);
    Write<uint64_t>(values.size());
    WriteBytes(values.data(), values.size() * sizeof(T));
  }
  template <typename T>
  void WriteVec(const std::vector<T>& values) {
    WriteVec(std::span<const T>(values));
  }

  void WriteBytes(const void* data, size_t size) {
    if (size > 0) {
      std::memcpy(Extend(size), data, size);
    }
  }

  // Grows the buffer by `size` bytes and returns a pointer to them, for
  // writing a fixed-width record in one pass. The pointer is valid until
  // the next call that appends.
  uint8_t* Extend(size_t size) {
    const size_t offset = bytes_.size();
    bytes_.resize(offset + size);
    return bytes_.data() + offset;
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  size_t size() const { return bytes_.size(); }
  std::vector<uint8_t> Release() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  // Reads one scalar; on underflow latches failure and returns T{}.
  template <typename T>
  T Read() {
    static_assert(std::is_trivially_copyable_v<T> && !std::is_pointer_v<T>);
    T value{};
    if (!ok_ || bytes_.size() - position_ < sizeof(T)) {
      ok_ = false;
      return value;
    }
    std::memcpy(&value, bytes_.data() + position_, sizeof(T));
    position_ += sizeof(T);
    return value;
  }

  // Reads a length-prefixed vector. Fails (without allocating) if the
  // declared element count exceeds `max_elements` or the remaining bytes.
  template <typename T>
  bool ReadVec(std::vector<T>& out, uint64_t max_elements) {
    static_assert(std::is_trivially_copyable_v<T> && !std::is_pointer_v<T>);
    const uint64_t count = Read<uint64_t>();
    if (!ok_ || count > max_elements || bytes_.size() - position_ < count * sizeof(T)) {
      ok_ = false;
      return false;
    }
    out.resize(count);
    if (count > 0) {
      std::memcpy(out.data(), bytes_.data() + position_, count * sizeof(T));
    }
    position_ += count * sizeof(T);
    return true;
  }

  bool ReadBytes(void* out, size_t size) {
    if (!ok_ || bytes_.size() - position_ < size) {
      ok_ = false;
      return false;
    }
    if (size > 0) {
      std::memcpy(out, bytes_.data() + position_, size);
    }
    position_ += size;
    return true;
  }

  // Marks the stream as failed (a caller-side validation failed; further
  // reads return zeros).
  void Fail() { ok_ = false; }

  bool ok() const { return ok_; }
  bool AtEnd() const { return position_ == bytes_.size(); }
  size_t position() const { return position_; }
  size_t remaining() const { return bytes_.size() - position_; }

 private:
  std::span<const uint8_t> bytes_;
  size_t position_ = 0;
  bool ok_ = true;
};

// FNV-1a 64-bit hash, used as the checkpoint payload integrity check.
uint64_t Fnv1a64(std::span<const uint8_t> bytes);

// XXH64 with seed 0 (the published xxHash 64-bit algorithm): four 64-bit
// lanes mixed per 32-byte stripe, used as the wire frame integrity check.
uint64_t Xxh64(std::span<const uint8_t> bytes);

}  // namespace crf

#endif  // CRF_UTIL_BYTE_IO_H_
