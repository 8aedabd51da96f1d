#include "crf/util/byte_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace crf {
namespace {

TEST(ByteIoTest, ScalarRoundTrip) {
  ByteWriter writer;
  writer.Write<uint8_t>(0xAB);
  writer.Write<int32_t>(-7);
  writer.Write<uint64_t>(uint64_t{1} << 63);
  writer.Write<double>(3.25);
  EXPECT_EQ(writer.size(), 1 + 4 + 8 + 8u);

  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.Read<uint8_t>(), 0xAB);
  EXPECT_EQ(reader.Read<int32_t>(), -7);
  EXPECT_EQ(reader.Read<uint64_t>(), uint64_t{1} << 63);
  EXPECT_EQ(reader.Read<double>(), 3.25);
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(ByteIoTest, VectorRoundTrip) {
  const std::vector<double> values = {1.5, -2.0, 0.0, 1e300};
  ByteWriter writer;
  writer.Field(values, 100);

  ByteReader reader(writer.bytes());
  std::vector<double> decoded;
  reader.Field(decoded, 100);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(decoded, values);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ByteIoTest, EmptyVectorRoundTrip) {
  ByteWriter writer;
  writer.Field(std::vector<int32_t>{}, 10);
  ByteReader reader(writer.bytes());
  std::vector<int32_t> decoded = {1, 2, 3};
  reader.Field(decoded, 10);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(decoded.empty());
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ByteIoTest, UnderflowLatchesFailureAndReturnsZero) {
  ByteWriter writer;
  writer.Write<uint16_t>(0xFFFF);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.Read<uint64_t>(), 0u);  // Needs 8 bytes, only 2 present.
  EXPECT_FALSE(reader.ok());
  // The failure latches: even reads that would fit now return zeros.
  EXPECT_EQ(reader.Read<uint8_t>(), 0);
  EXPECT_FALSE(reader.ok());
}

TEST(ByteIoTest, OversizedVectorCountRejectedBeforeAllocation) {
  ByteWriter writer;
  writer.Write<uint64_t>(uint64_t{1} << 60);  // Absurd element count.
  ByteReader reader(writer.bytes());
  std::vector<double> decoded;
  reader.Field(decoded, uint64_t{1} << 59);
  EXPECT_FALSE(reader.ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(ByteIoTest, VectorCountAboveCapRejected) {
  ByteWriter writer;
  writer.Field(std::vector<int32_t>{1, 2, 3, 4}, 4);
  ByteReader reader(writer.bytes());
  std::vector<int32_t> decoded;
  reader.Field(decoded, 3);
  EXPECT_FALSE(reader.ok());
}

TEST(ByteIoTest, TruncatedVectorPayloadRejected) {
  ByteWriter writer;
  writer.Field(std::vector<int64_t>{1, 2, 3}, 10);
  std::vector<uint8_t> bytes = writer.bytes();
  bytes.resize(bytes.size() - 1);
  ByteReader reader(bytes);
  std::vector<int64_t> decoded;
  reader.Field(decoded, 10);
  EXPECT_FALSE(reader.ok());
}

TEST(ByteIoTest, ExplicitFailPoisonsFurtherReads) {
  ByteWriter writer;
  writer.Write<int32_t>(41);
  ByteReader reader(writer.bytes());
  reader.Fail();
  EXPECT_EQ(reader.Read<int32_t>(), 0);
  EXPECT_FALSE(reader.ok());
}

TEST(ByteIoTest, ReadBytesRoundTripAndUnderflow) {
  ByteWriter writer;
  const char payload[] = "abcdef";
  writer.WriteBytes(payload, 6);
  ByteReader reader(writer.bytes());
  char out[6] = {};
  ASSERT_TRUE(reader.ReadBytes(out, 6));
  EXPECT_EQ(std::string(out, 6), "abcdef");
  EXPECT_FALSE(reader.ReadBytes(out, 1));
  EXPECT_FALSE(reader.ok());
}

// A record with one field of each kind the symmetric API takes.
struct Sample {
  int32_t tag = 7;
  bool flag = false;
  std::array<double, 2> pair{};
  std::string name;
  std::vector<float> values;
  int32_t checked = 0;
  bool operator==(const Sample&) const = default;

  template <typename Io, typename Self>
  static void Transfer(Io& io, Self& self) {
    io.Expect(self.tag);
    io.Fields(self.flag, self.pair);
    io.Field(self.name, 8);
    io.Field(self.values, 4);
    io.Field(self.checked);
    io.Check([&] { return self.checked >= 0; });
  }
};

Sample FilledSample() {
  Sample sample;
  sample.flag = true;
  sample.pair = {-0.0, 1e300};
  sample.name = std::string("a\0z", 3);
  sample.values = {1.5f, -2.0f};
  sample.checked = 41;
  return sample;
}

std::vector<uint8_t> Saved(const Sample& sample) {
  ByteWriter writer;
  writer.Field(sample);
  return writer.Release();
}

TEST(ByteIoFieldTest, RecordRoundTripsInTheLayoutItLists) {
  const Sample sample = FilledSample();
  const std::vector<uint8_t> bytes = Saved(sample);
  // tag, flag, pair, name (length + 3), values (length + 2 floats), checked.
  ByteWriter expected;
  expected.Write<int32_t>(7);
  expected.Write<uint8_t>(1);
  expected.Write<double>(-0.0);
  expected.Write<double>(1e300);
  expected.Write<uint64_t>(3);
  expected.WriteBytes("a\0z", 3);
  expected.Write<uint64_t>(2);
  expected.Write<float>(1.5f);
  expected.Write<float>(-2.0f);
  expected.Write<int32_t>(41);
  EXPECT_EQ(bytes, expected.bytes());

  Sample loaded;
  ByteReader reader(bytes);
  ASSERT_TRUE(reader.Load(loaded));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(loaded, sample);
}

TEST(ByteIoFieldTest, FailedLoadLeavesTheRecordUnchanged) {
  const Sample sample = FilledSample();
  const std::vector<uint8_t> good = Saved(sample);
  const auto load_fails = [&](std::vector<uint8_t> bytes) {
    Sample target;
    target.checked = 99;
    ByteReader reader(bytes);
    const bool loaded = reader.Load(target);
    Sample untouched;
    untouched.checked = 99;
    EXPECT_EQ(target, untouched);
    return !loaded && !reader.ok();
  };
  // Every truncation.
  for (size_t length = 0; length < good.size(); ++length) {
    EXPECT_TRUE(load_fails({good.begin(), good.begin() + static_cast<std::ptrdiff_t>(length)}))
        << "length=" << length;
  }
  std::vector<uint8_t> bytes = good;
  bytes[0] = 8;  // Expect: a stored tag other than this record's.
  EXPECT_TRUE(load_fails(bytes));
  bytes = good;
  bytes[4] = 2;  // A bool above 1.
  EXPECT_TRUE(load_fails(bytes));
  bytes = good;
  bytes[21] = 9;  // A name length above its cap of 8.
  EXPECT_TRUE(load_fails(bytes));
  bytes = good;
  bytes[32] = 5;  // A vector length above its cap of 4.
  EXPECT_TRUE(load_fails(bytes));
  bytes = good;
  bytes.back() = 0x80;  // Check: `checked` turns negative.
  EXPECT_TRUE(load_fails(bytes));
}

TEST(ByteIoFieldTest, CheckIsSkippedOnceAReadFailed) {
  ByteReader reader(std::span<const uint8_t>{});
  int32_t value = 5;
  reader.Field(value);
  bool called = false;
  reader.Check([&] {
    called = true;
    return true;
  });
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(called);
  EXPECT_EQ(value, 0);
}

TEST(ByteIoTest, Fnv1a64KnownVectors) {
  // Offset basis for the empty input, and the classic "a" test vector.
  EXPECT_EQ(Fnv1a64({}), 0xcbf29ce484222325u);
  const uint8_t a = 'a';
  EXPECT_EQ(Fnv1a64(std::span<const uint8_t>(&a, 1)), 0xaf63dc4c8601ec8cu);
}

TEST(ByteIoTest, Fnv1a64DetectsSingleBitFlips) {
  ByteWriter writer;
  for (int i = 0; i < 64; ++i) {
    writer.Write<double>(i * 0.125);
  }
  std::vector<uint8_t> bytes = writer.bytes();
  const uint64_t clean = Fnv1a64(bytes);
  for (size_t i = 0; i < bytes.size(); i += 37) {
    bytes[i] ^= 0x10;
    EXPECT_NE(Fnv1a64(bytes), clean) << "flip at " << i;
    bytes[i] ^= 0x10;
  }
  EXPECT_EQ(Fnv1a64(bytes), clean);
}

std::span<const uint8_t> AsBytes(std::string_view s) {
  return std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

TEST(ByteIoTest, Xxh64KnownVectors) {
  // Published XXH64 (seed 0) vectors. The lengths 0, 1, 3 and 39 cover the
  // short-input path, the 1-byte tail, and (39 = 32 + 4 + 3) one 32-byte
  // stripe followed by the 4-byte and 1-byte tails. The 8-byte tail has no
  // vector here; the length walk below exercises it.
  EXPECT_EQ(Xxh64({}), 0xef46db3751d8e999u);
  EXPECT_EQ(Xxh64(AsBytes("a")), 0xd24ec4f1a98c6e5bu);
  EXPECT_EQ(Xxh64(AsBytes("abc")), 0x44bc2cf5ad770999u);
  EXPECT_EQ(Xxh64(AsBytes("Nobody inspects the spammish repetition")), 0xfbcea83c8a378bf1u);
}

TEST(ByteIoTest, Xxh64DetectsSingleBitFlips) {
  std::vector<uint8_t> bytes(100);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  const uint64_t clean = Xxh64(bytes);
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[i] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_NE(Xxh64(bytes), clean) << "flip at byte " << i << " bit " << bit;
      bytes[i] ^= static_cast<uint8_t>(1u << bit);
    }
  }
  EXPECT_EQ(Xxh64(bytes), clean);
}

TEST(ByteIoTest, Xxh64EveryLengthIsDistinctFromItsPrefix) {
  // Lengths 0..100 walk every tail combination (8-, 4- and 1-byte words)
  // with and without stripes; no prefix may collide with its extension.
  std::vector<uint8_t> bytes(100, 0);
  std::vector<uint64_t> hashes;
  for (size_t len = 0; len <= bytes.size(); ++len) {
    hashes.push_back(Xxh64(std::span<const uint8_t>(bytes.data(), len)));
  }
  std::sort(hashes.begin(), hashes.end());
  EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()), hashes.end());
}

}  // namespace
}  // namespace crf
