// Randomized churn stress for IndexableWindow: long insert/evict sequences with heavy duplicates are checked
// bit for bit against a naive sorted-vector reference, at capacities on
// both sides of the switch from counting to binary search and at the
// 1200- and 2016-sample lengths of long histories. A mid-churn
// SaveState/LoadState round trip and a window reused after Clear() must
// both continue bit-identically to an uninterrupted / fresh window.

#include "crf/core/indexable_window.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <vector>

#include "crf/stats/percentile.h"
#include "crf/util/byte_io.h"
#include "crf/util/rng.h"

namespace crf {
namespace {

// Naive reference: arrival-order deque, full sort per query. Mirrors the
// window's documented percentile interpolation exactly.
class NaiveWindow {
 public:
  explicit NaiveWindow(int capacity) : capacity_(capacity) {}

  void Push(float sample) {
    if (static_cast<int>(ring_.size()) == capacity_) {
      ring_.pop_front();
    }
    ring_.push_back(sample);
  }

  int size() const { return static_cast<int>(ring_.size()); }

  double Percentile(double p) const {
    std::vector<float> sorted(ring_.begin(), ring_.end());
    std::sort(sorted.begin(), sorted.end());
    const int count = static_cast<int>(sorted.size());
    if (count == 1) {
      return sorted[0];
    }
    const double rank = p / 100.0 * static_cast<double>(count - 1);
    const int lo = static_cast<int>(rank);
    const int hi = std::min(lo + 1, count - 1);
    const double frac = rank - static_cast<double>(lo);
    const float lo_value = sorted[lo];
    const float hi_value = hi == lo ? lo_value : sorted[hi];
    return lo_value + frac * (hi_value - lo_value);
  }

  double Mean() const {
    if (ring_.empty()) {
      return 0.0;
    }
    double sum = 0.0;
    for (const float v : ring_) {
      sum += v;
    }
    return sum / static_cast<double>(ring_.size());
  }

  float Latest() const { return ring_.back(); }

 private:
  int capacity_;
  std::deque<float> ring_;
};

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// Sample streams with heavy duplicates and plateaus: runs of equal values
// are exactly where the sorted array's evict/insert tie-handling can go
// wrong.
float NextSample(Rng& rng) {
  const double shape = rng.UniformDouble();
  if (shape < 0.4) {
    // Coarse grid: many exact duplicates.
    return static_cast<float>(rng.UniformInt(8)) * 0.125f;
  }
  if (shape < 0.5) {
    return 0.5f;  // Plateau value.
  }
  if (shape < 0.55) {
    return -static_cast<float>(rng.UniformDouble());
  }
  return static_cast<float>(rng.UniformDouble() * 4.0);
}

class IndexableWindowStressTest : public ::testing::TestWithParam<int> {};

TEST_P(IndexableWindowStressTest, ChurnMatchesNaiveReference) {
  const int capacity = GetParam();
  Rng rng(4242 + static_cast<uint64_t>(capacity));
  IndexableWindow window(capacity);
  NaiveWindow naive(capacity);

  const int pushes = 4000 + 4 * capacity;
  const double percentiles[] = {0.0, 1.0, 37.5, 50.0, 90.0, 99.0, 100.0};
  for (int i = 0; i < pushes; ++i) {
    const float sample = NextSample(rng);
    window.Push(sample);
    naive.Push(sample);
    ASSERT_EQ(window.size(), naive.size());
    EXPECT_EQ(window.Latest(), naive.Latest());
    // Querying every push is quadratic in the reference; sample the tail
    // densely (evictions active) and the warm-up sparsely.
    const bool check = i < 2 * capacity ? (i % 7 == 0) : (i % 23 == 0);
    if (check) {
      for (const double p : percentiles) {
        EXPECT_EQ(Bits(window.Percentile(p)), Bits(naive.Percentile(p)))
            << "capacity=" << capacity << " i=" << i << " p=" << p;
      }
      EXPECT_NEAR(window.Mean(), naive.Mean(), 1e-9)
          << "capacity=" << capacity << " i=" << i;
    }
  }
}

TEST_P(IndexableWindowStressTest, SaveLoadMidChurnContinuesBitIdentically) {
  const int capacity = GetParam();
  Rng rng(9090 + static_cast<uint64_t>(capacity));
  IndexableWindow window(capacity);

  // Churn past several wrap-arounds so the ring head is mid-buffer.
  for (int i = 0; i < 3 * capacity + 17; ++i) {
    window.Push(NextSample(rng));
  }

  ByteWriter writer;
  window.SaveState(writer);
  IndexableWindow restored(capacity);
  ByteReader reader(writer.bytes());
  ASSERT_TRUE(restored.LoadState(reader));
  EXPECT_TRUE(reader.AtEnd());

  // Same future stream into both: every observable must stay bit-identical,
  // including the running (drifting) sum behind Mean().
  Rng future(777);
  for (int i = 0; i < 2 * capacity + 31; ++i) {
    const float sample = NextSample(future);
    window.Push(sample);
    restored.Push(sample);
    ASSERT_EQ(restored.size(), window.size());
    EXPECT_EQ(restored.Latest(), window.Latest());
    EXPECT_EQ(Bits(restored.Mean()), Bits(window.Mean())) << "i=" << i;
    if (i % 11 == 0) {
      for (const double p : {0.0, 25.0, 50.0, 95.0, 100.0}) {
        EXPECT_EQ(Bits(restored.Percentile(p)), Bits(window.Percentile(p)))
            << "i=" << i << " p=" << p;
      }
    }
  }
}

// A pooled window is Clear()ed and reused for the next task: it must behave
// exactly like a freshly constructed one, down to its checkpoint bytes.
TEST_P(IndexableWindowStressTest, ReuseAfterClearMatchesFreshWindow) {
  const int capacity = GetParam();
  Rng rng(5150 + static_cast<uint64_t>(capacity));
  IndexableWindow reused(capacity);
  for (int i = 0; i < 2 * capacity + 5; ++i) {
    reused.Push(NextSample(rng));
  }
  reused.Clear();
  EXPECT_TRUE(reused.empty());
  EXPECT_EQ(reused.capacity(), capacity);

  IndexableWindow fresh(capacity);
  for (int i = 0; i < 2 * capacity + 13; ++i) {
    const float sample = NextSample(rng);
    reused.Push(sample);
    fresh.Push(sample);
    ASSERT_EQ(reused.size(), fresh.size());
    EXPECT_EQ(reused.Latest(), fresh.Latest());
    EXPECT_EQ(Bits(reused.Mean()), Bits(fresh.Mean())) << "i=" << i;
    // Early pushes grow the window through its padding; check them all.
    if (i < capacity || i % 9 == 0) {
      for (const double p : {0.0, 10.0, 50.0, 99.0, 100.0}) {
        EXPECT_EQ(Bits(reused.Percentile(p)), Bits(fresh.Percentile(p)))
            << "i=" << i << " p=" << p;
      }
    }
  }
  ByteWriter reused_state;
  reused.SaveState(reused_state);
  ByteWriter fresh_state;
  fresh.SaveState(fresh_state);
  EXPECT_EQ(reused_state.bytes(), fresh_state.bytes());
}

// Values straddle the rank-method switch (counting up to 64 samples, binary
// search beyond) and the 8-float padding blocks; 24 and 120 are the paper's
// 2h and 10h histories, 1200 and 2016 long-history windows.
INSTANTIATE_TEST_SUITE_P(Capacities, IndexableWindowStressTest,
                         ::testing::Values(1, 2, 7, 8, 9, 24, 63, 64, 65, 120, 200, 1024, 1200,
                                           2016));

TEST(IndexableWindowStateTest, LoadRejectsCapacityMismatch) {
  IndexableWindow window(16);
  for (int i = 0; i < 10; ++i) {
    window.Push(static_cast<float>(i));
  }
  ByteWriter writer;
  window.SaveState(writer);

  IndexableWindow wrong(32);
  ByteReader reader(writer.bytes());
  EXPECT_FALSE(wrong.LoadState(reader));
  EXPECT_FALSE(reader.ok());
}

TEST(IndexableWindowStateTest, LoadRejectsTruncatedAndFlippedState) {
  IndexableWindow window(32);
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    window.Push(NextSample(rng));
  }
  ByteWriter writer;
  window.SaveState(writer);
  const std::vector<uint8_t>& bytes = writer.bytes();

  for (const size_t length : {size_t{0}, size_t{3}, bytes.size() / 2, bytes.size() - 1}) {
    IndexableWindow target(32);
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + static_cast<long>(length));
    ByteReader reader(truncated);
    EXPECT_FALSE(target.LoadState(reader) && reader.AtEnd()) << "length=" << length;
  }
}

// A saved window of capacity 16 holding `count` samples: the record is
// capacity (i32), head (i32), ring length (u64), the ring floats, the sum
// (f64) and the refresh countdown (i32).
std::vector<uint8_t> SavedWindow(int count) {
  IndexableWindow window(16);
  for (int i = 0; i < count; ++i) {
    window.Push(static_cast<float>(i % 5) * 0.25f);
  }
  ByteWriter writer;
  window.SaveState(writer);
  return writer.bytes();
}

bool Loads(const std::vector<uint8_t>& bytes) {
  IndexableWindow target(16);
  ByteReader reader(bytes);
  return target.LoadState(reader) && reader.AtEnd();
}

template <typename T>
void Poke(std::vector<uint8_t>& bytes, size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), bytes.size());
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
}

TEST(IndexableWindowStateTest, LoadRejectsNonFiniteSamplesAndFields) {
  const std::vector<uint8_t> good = SavedWindow(40);
  ASSERT_TRUE(Loads(good));
  constexpr size_t kRing = 16;  // After capacity, head and the ring length.
  const size_t sum_offset = kRing + 16 * sizeof(float);
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    for (const size_t slot : {size_t{0}, size_t{7}, size_t{15}}) {
      std::vector<uint8_t> bytes = good;
      Poke(bytes, kRing + slot * sizeof(float), bad);
      EXPECT_FALSE(Loads(bytes)) << "sample " << bad << " in slot " << slot;
    }
  }
  std::vector<uint8_t> bad_sum = good;
  Poke(bad_sum, sum_offset, std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(Loads(bad_sum));
  for (const int32_t refresh : {0, -1, (1 << 15) + 1}) {
    std::vector<uint8_t> bytes = good;
    Poke(bytes, sum_offset + sizeof(double), refresh);
    EXPECT_FALSE(Loads(bytes)) << "refresh " << refresh;
  }
}

TEST(IndexableWindowStateTest, LoadRejectsBadHead) {
  // Full ring: the head must index into it.
  const std::vector<uint8_t> full = SavedWindow(40);
  for (const int32_t head : {-1, 16, 1000}) {
    std::vector<uint8_t> bytes = full;
    Poke(bytes, sizeof(int32_t), head);
    EXPECT_FALSE(Loads(bytes)) << "head " << head;
  }
  // Partial ring: the oldest sample is slot 0, so the head must be 0.
  const std::vector<uint8_t> partial = SavedWindow(5);
  ASSERT_TRUE(Loads(partial));
  std::vector<uint8_t> bytes = partial;
  Poke(bytes, sizeof(int32_t), int32_t{1});
  EXPECT_FALSE(Loads(bytes));
  // A ring longer than the capacity.
  bytes = full;
  Poke(bytes, 2 * sizeof(int32_t), uint64_t{17});
  EXPECT_FALSE(Loads(bytes));
}

// The TaskHistory* suites below were written for TaskHistory, a
// pass-through per-task wrapper over IndexableWindow that no longer exists.
// They drive IndexableWindow directly and keep their names so their results
// stay comparable across versions.
TEST(TaskHistoryStressTest, WrapperMatchesReferenceAndRoundTrips) {
  IndexableWindow history(48);
  NaiveWindow naive(48);
  Rng rng(31337);
  for (int i = 0; i < 600; ++i) {
    const float sample = NextSample(rng);
    history.Push(sample);
    naive.Push(sample);
    if (i % 13 == 0) {
      EXPECT_EQ(history.Percentile(95.0), naive.Percentile(95.0)) << "i=" << i;
      EXPECT_NEAR(history.Mean(), naive.Mean(), 1e-9) << "i=" << i;
    }
  }

  ByteWriter writer;
  history.SaveState(writer);
  IndexableWindow restored(48);
  ByteReader reader(writer.bytes());
  ASSERT_TRUE(restored.LoadState(reader));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(restored.size(), history.size());
  EXPECT_EQ(restored.Percentile(99.0), history.Percentile(99.0));
  EXPECT_EQ(restored.Mean(), history.Mean());
}

TEST(TaskHistoryTest, GrowsUntilCapacity) {
  IndexableWindow history(3);
  EXPECT_TRUE(history.empty());
  history.Push(1.0f);
  history.Push(2.0f);
  EXPECT_EQ(history.size(), 2);
  history.Push(3.0f);
  history.Push(4.0f);  // Evicts 1.0.
  EXPECT_EQ(history.size(), 3);
  EXPECT_EQ(history.capacity(), 3);
}

TEST(TaskHistoryTest, EvictsOldestFirst) {
  IndexableWindow history(2);
  history.Push(10.0f);
  history.Push(1.0f);
  history.Push(2.0f);  // 10 evicted; window = {1, 2}.
  EXPECT_DOUBLE_EQ(history.Percentile(100.0), 2.0);
  EXPECT_DOUBLE_EQ(history.Percentile(0.0), 1.0);
}

TEST(TaskHistoryTest, LatestTracksNewest) {
  IndexableWindow history(3);
  history.Push(1.0f);
  EXPECT_FLOAT_EQ(history.Latest(), 1.0f);
  history.Push(2.0f);
  history.Push(3.0f);
  EXPECT_FLOAT_EQ(history.Latest(), 3.0f);
  history.Push(4.0f);  // Wrapped.
  EXPECT_FLOAT_EQ(history.Latest(), 4.0f);
  history.Push(5.0f);
  EXPECT_FLOAT_EQ(history.Latest(), 5.0f);
}

TEST(TaskHistoryTest, MeanOverWindow) {
  IndexableWindow history(2);
  history.Push(1.0f);
  history.Push(3.0f);
  EXPECT_DOUBLE_EQ(history.Mean(), 2.0);
  history.Push(5.0f);  // Window {3, 5}.
  EXPECT_DOUBLE_EQ(history.Mean(), 4.0);
}

TEST(TaskHistoryTest, CapacityOne) {
  IndexableWindow history(1);
  history.Push(1.0f);
  history.Push(7.0f);
  EXPECT_EQ(history.size(), 1);
  EXPECT_FLOAT_EQ(history.Latest(), 7.0f);
  EXPECT_DOUBLE_EQ(history.Percentile(50.0), 7.0);
}

TEST(TaskHistoryTest, DuplicateValuesEvictCorrectly) {
  IndexableWindow history(3);
  history.Push(2.0f);
  history.Push(2.0f);
  history.Push(2.0f);
  history.Push(5.0f);  // One 2.0 evicted; {2, 2, 5} remain.
  EXPECT_DOUBLE_EQ(history.Percentile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(history.Percentile(100.0), 5.0);
  EXPECT_NEAR(history.Mean(), 3.0, 1e-6);
}

// Property: percentiles over the window match a reference deque at every
// step of a random stream.
class TaskHistoryPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TaskHistoryPropertyTest, MatchesReferenceWindow) {
  Rng rng(60 + GetParam());
  const int capacity = 1 + static_cast<int>(rng.UniformInt(40));
  IndexableWindow history(capacity);
  std::deque<float> reference;
  for (int step = 0; step < 500; ++step) {
    const float sample = static_cast<float>(rng.UniformDouble());
    history.Push(sample);
    reference.push_back(sample);
    if (static_cast<int>(reference.size()) > capacity) {
      reference.pop_front();
    }
    std::vector<double> window(reference.begin(), reference.end());
    for (const double p : {0.0, 37.0, 50.0, 95.0, 100.0}) {
      ASSERT_NEAR(history.Percentile(p), Percentile(window, p), 1e-6)
          << "capacity=" << capacity << " step=" << step << " p=" << p;
    }
    ASSERT_FLOAT_EQ(history.Latest(), sample);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomStreams, TaskHistoryPropertyTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace crf
