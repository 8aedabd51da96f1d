#include "crf/util/byte_io.h"

#include <bit>

namespace crf {

uint64_t Fnv1a64(std::span<const uint8_t> bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

namespace {

constexpr uint64_t kXxPrime1 = 0x9e3779b185ebca87ull;
constexpr uint64_t kXxPrime2 = 0xc2b2ae3d27d4eb4full;
constexpr uint64_t kXxPrime3 = 0x165667b19e3779f9ull;
constexpr uint64_t kXxPrime4 = 0x85ebca77c2b2ae63ull;
constexpr uint64_t kXxPrime5 = 0x27d4eb2f165667c5ull;

// Little-endian loads (the byte_io encoding is the host's; every supported
// host is little-endian).
uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t XxRound(uint64_t acc, uint64_t input) {
  acc += input * kXxPrime2;
  acc = std::rotl(acc, 31);
  return acc * kXxPrime1;
}

uint64_t XxMerge(uint64_t acc, uint64_t lane) {
  acc ^= XxRound(0, lane);
  return acc * kXxPrime1 + kXxPrime4;
}

}  // namespace

uint64_t Xxh64(std::span<const uint8_t> bytes) {
  const uint8_t* p = bytes.data();
  size_t remaining = bytes.size();
  uint64_t hash;
  if (remaining >= 32) {
    // Seed 0: the four lane accumulators start at their published offsets.
    uint64_t v1 = kXxPrime1 + kXxPrime2;
    uint64_t v2 = kXxPrime2;
    uint64_t v3 = 0;
    uint64_t v4 = 0 - kXxPrime1;
    do {
      v1 = XxRound(v1, Load64(p));
      v2 = XxRound(v2, Load64(p + 8));
      v3 = XxRound(v3, Load64(p + 16));
      v4 = XxRound(v4, Load64(p + 24));
      p += 32;
      remaining -= 32;
    } while (remaining >= 32);
    hash = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    hash = XxMerge(hash, v1);
    hash = XxMerge(hash, v2);
    hash = XxMerge(hash, v3);
    hash = XxMerge(hash, v4);
  } else {
    hash = kXxPrime5;
  }
  hash += bytes.size();
  // Tail: 8-byte words, then at most one 4-byte word, then single bytes.
  for (; remaining >= 8; p += 8, remaining -= 8) {
    hash ^= XxRound(0, Load64(p));
    hash = std::rotl(hash, 27) * kXxPrime1 + kXxPrime4;
  }
  if (remaining >= 4) {
    hash ^= uint64_t{Load32(p)} * kXxPrime1;
    hash = std::rotl(hash, 23) * kXxPrime2 + kXxPrime3;
    p += 4;
    remaining -= 4;
  }
  for (; remaining > 0; ++p, --remaining) {
    hash ^= *p * kXxPrime5;
    hash = std::rotl(hash, 11) * kXxPrime1;
  }
  // Avalanche.
  hash ^= hash >> 33;
  hash *= kXxPrime2;
  hash ^= hash >> 29;
  hash *= kXxPrime3;
  hash ^= hash >> 32;
  return hash;
}

}  // namespace crf
