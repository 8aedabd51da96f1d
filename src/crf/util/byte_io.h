// Bounds-checked binary serialization primitives for checkpoint payloads.
//
// ByteWriter appends little-endian POD values and length-prefixed sequences
// to a growable buffer; ByteReader walks the same encoding with every read
// bounds-checked. A reader never throws or aborts on malformed input — it
// latches a failure flag and returns zeros, so callers can decode untrusted
// bytes (a truncated or bit-flipped checkpoint) and reject them with one
// ok() check at the end. Length prefixes are validated against an explicit
// element cap before any allocation, so a corrupted length cannot trigger a
// multi-gigabyte resize.
//
// Both classes implement one symmetric field API, so a serialized record
// writes its layout down once, in a static member template
//
//   template <typename Io, typename Self>
//   static void Transfer(Io& io, Self& self);
//
// that lists its fields with io.Field / io.Fields / io.Expect. ByteWriter
// runs it with `Self = const T` and appends every field; ByteReader runs it
// with `Self = T` and reads the same fields back, in the same order. A
// load validates after reading, with io.Check (a writer skips the check);
// `if constexpr (Io::kLoading)` guards what only a load does, such as
// rebuilding a derived view. The fields:
//  * arithmetic and enum scalars, in their own width;
//  * bool as one byte; a read rejects any value above 1;
//  * std::array, element by element;
//  * strings and vectors of trivially copyable elements, as a u64 length
//    and the elements; the read-side cap is the second argument;
//  * Expect(value): written on save; on load, a stored value that differs
//    fails the load (capacities, group counts, format tags);
//  * nested records, through their own Transfer.
// A Transfer defined in a .cc is instantiated for both directions there
// with CRF_INSTANTIATE_TRANSFER.
//
// Two 64-bit hashes live here: Fnv1a64 (byte-serial; the CRFCKPT1 payload
// check and the machine-query roster hash) and Xxh64 (word-parallel; the
// CRFNET frame check, where the checksum sits on every request's critical
// path).

#ifndef CRF_UTIL_BYTE_IO_H_
#define CRF_UTIL_BYTE_IO_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace crf {

class ByteWriter;

// A type that lists its serialized layout in a static Transfer template.
template <typename T>
concept Transferable = requires(ByteWriter& out, const T& value) { T::Transfer(out, value); };

// A std::string or std::vector of trivially copyable elements: stored as a
// u64 length and the elements' bytes.
template <typename T>
concept Sequence = requires(T& values) {
  values.resize(0);
  values.data();
} && std::is_trivially_copyable_v<typename T::value_type>;

class ByteWriter {
 public:
  static constexpr bool kLoading = false;

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

  // --- Symmetric field API (see the file comment). ---
  template <typename T>
  void Field(const T& value) {
    if constexpr (Transferable<T>) {
      T::Transfer(*this, value);
    } else if constexpr (std::is_same_v<T, bool>) {
      Write<uint8_t>(value ? 1 : 0);
    } else {
      static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
      Write(value);
    }
  }
  template <typename T, size_t N>
  void Field(const std::array<T, N>& values) {
    for (const T& value : values) {
      Field(value);
    }
  }
  // The cap bounds only a read.
  template <Sequence T>
  void Field(const T& values, uint64_t /*max_elements*/) {
    Write<uint64_t>(values.size());
    WriteBytes(values.data(), values.size() * sizeof(typename T::value_type));
  }
  template <typename... Ts>
  void Fields(const Ts&... values) {
    (Field(values), ...);
  }
  template <typename T>
  void Expect(const T& value) {
    Field(value);
  }
  template <typename Valid>
  void Check(Valid&& /*valid*/) {}
  bool ok() const { return true; }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  size_t size() const { return bytes_.size(); }
  std::vector<uint8_t> Release() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

class ByteReader {
 public:
  static constexpr bool kLoading = true;

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

  // --- Symmetric field API (see the file comment). ---
  template <typename T>
  void Field(T& value) {
    if constexpr (Transferable<T>) {
      T::Transfer(*this, value);
    } else if constexpr (std::is_same_v<T, bool>) {
      const uint8_t byte = Read<uint8_t>();
      Check([byte] { return byte <= 1; });
      value = byte == 1;
    } else {
      static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
      value = Read<T>();
    }
  }
  template <typename T, size_t N>
  void Field(std::array<T, N>& values) {
    for (T& value : values) {
      Field(value);
    }
  }
  // Fails (without allocating) if the stored length exceeds `max_elements`
  // or the remaining bytes.
  template <Sequence T>
  void Field(T& values, uint64_t max_elements) {
    constexpr size_t kWidth = sizeof(typename T::value_type);
    const uint64_t count = Read<uint64_t>();
    if (!ok_ || count > max_elements || remaining() / kWidth < count) {
      ok_ = false;
      return;
    }
    values.resize(count);
    ReadBytes(values.data(), count * kWidth);
  }
  template <typename... Ts>
  void Fields(Ts&... values) {
    (Field(values), ...);
  }
  template <typename T>
  void Expect(const T& expected) {
    T value{};
    Field(value);
    Check([&] { return value == expected; });
  }
  // Fails the load unless `valid()` holds; not called once a read failed,
  // so a check never sees the zeros a failed read returns.
  template <typename Valid>
  void Check(Valid&& valid) {
    if (ok_ && !valid()) {
      ok_ = false;
    }
  }

  // Reads `record` into a copy and commits the copy only when every field
  // read and validated, so a failed load leaves `record` as it was.
  template <Transferable T>
  bool Load(T& record) {
    T loaded = record;
    Field(loaded);
    if (!ok_) {
      return false;
    }
    record = std::move(loaded);
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

// Instantiates the Transfer of record T, defined in the including .cc, for
// saving and for loading.
#define CRF_INSTANTIATE_TRANSFER(T)                 \
  template void T::Transfer(ByteWriter&, const T&); \
  template void T::Transfer(ByteReader&, T&)

// FNV-1a 64-bit hash, used as the checkpoint payload integrity check.
uint64_t Fnv1a64(std::span<const uint8_t> bytes);

// XXH64 with seed 0 (the published xxHash 64-bit algorithm): four 64-bit
// lanes mixed per 32-byte stripe, used as the wire frame integrity check.
uint64_t Xxh64(std::span<const uint8_t> bytes);

}  // namespace crf

#endif  // CRF_UTIL_BYTE_IO_H_
