#include "crf/util/byte_io.h"

#include <gtest/gtest.h>

#include <algorithm>
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
  writer.WriteVec(values);

  ByteReader reader(writer.bytes());
  std::vector<double> decoded;
  ASSERT_TRUE(reader.ReadVec(decoded, 100));
  EXPECT_EQ(decoded, values);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ByteIoTest, EmptyVectorRoundTrip) {
  ByteWriter writer;
  writer.WriteVec(std::vector<int32_t>{});
  ByteReader reader(writer.bytes());
  std::vector<int32_t> decoded = {1, 2, 3};
  ASSERT_TRUE(reader.ReadVec(decoded, 10));
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
  EXPECT_FALSE(reader.ReadVec(decoded, uint64_t{1} << 59));
  EXPECT_FALSE(reader.ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(ByteIoTest, VectorCountAboveCapRejected) {
  ByteWriter writer;
  writer.WriteVec(std::vector<int32_t>{1, 2, 3, 4});
  ByteReader reader(writer.bytes());
  std::vector<int32_t> decoded;
  EXPECT_FALSE(reader.ReadVec(decoded, 3));
  EXPECT_FALSE(reader.ok());
}

TEST(ByteIoTest, TruncatedVectorPayloadRejected) {
  ByteWriter writer;
  writer.WriteVec(std::vector<int64_t>{1, 2, 3});
  std::vector<uint8_t> bytes = writer.bytes();
  bytes.resize(bytes.size() - 1);
  ByteReader reader(bytes);
  std::vector<int64_t> decoded;
  EXPECT_FALSE(reader.ReadVec(decoded, 10));
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
