#include "crf/core/indexable_window.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "crf/util/check.h"

namespace crf {

namespace {

constexpr float kPadding = std::numeric_limits<float>::infinity();

}  // namespace

IndexableWindow::IndexableWindow(int capacity) : capacity_(capacity) {
  CRF_CHECK_GT(capacity, 0);
  ring_.reserve(capacity);
  sorted_.assign((capacity + kLanes - 1) / kLanes * kLanes, kPadding);
}

void IndexableWindow::Push(float sample) {
  CRF_CHECK(std::isfinite(sample)) << "non-finite usage sample " << sample;
  const int count = size();
  if (count < capacity_) {
    // Slot `count` holds padding, so the shift stays inside the array.
    float* sorted = sorted_.data();
    const int at = CountBelow(sample);
    std::copy_backward(sorted + at, sorted + count, sorted + count + 1);
    sorted[at] = sample;
    ring_.push_back(sample);
  } else {
    const float evicted = ring_[head_];
    ring_[head_] = sample;
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    Replace(evicted, sample);
    sum_ -= evicted;
  }
  sum_ += sample;
  if (--pushes_until_sum_refresh_ == 0) {
    pushes_until_sum_refresh_ = kSumRefreshPeriod;
    double exact = 0.0;
    for (const float v : ring_) {
      exact += v;
    }
    sum_ = exact;
  }
}

void IndexableWindow::Clear() {
  std::fill(sorted_.begin(), sorted_.begin() + size(), kPadding);
  ring_.clear();
  head_ = 0;
  sum_ = 0.0;
  pushes_until_sum_refresh_ = kSumRefreshPeriod;
}

int IndexableWindow::CountBelow(float value) const {
  // The +inf padding never counts (value is finite), so both methods run
  // over the whole array, filled or not.
  const float* sorted = sorted_.data();
  const size_t length = sorted_.size();
  if (capacity_ > kMaxCountingCapacity) {
    // Branch-free lower bound: probes on usage samples go either way at
    // random, so a conditional move beats a mispredicted branch.
    const float* base = sorted;
    for (size_t remaining = length; remaining > 1;) {
      const size_t half = remaining / 2;
      base = base[half] < value ? base + half : base;
      remaining -= half;
    }
    return static_cast<int>(base - sorted) + (*base < value);
  }
  // Fixed-width blocks with one counter per lane: no data-dependent branch,
  // and the compiler vectorizes the inner loop.
  int lanes[kLanes] = {};
  for (size_t block = 0; block < length; block += kLanes) {
    for (int lane = 0; lane < kLanes; ++lane) {
      lanes[lane] += sorted[block + lane] < value;
    }
  }
  int count = 0;
  for (const int lane_count : lanes) {
    count += lane_count;
  }
  return count;
}

void IndexableWindow::Replace(float evicted, float sample) {
  float* sorted = sorted_.data();
  const int from = CountBelow(evicted);
  CRF_CHECK(from < capacity_ && sorted[from] == evicted)
      << "evicted sample " << evicted << " not in the window";
  // `to` counts the evicted value itself when sample > evicted: the values
  // strictly between the two slide one slot toward the vacated one.
  const int to = CountBelow(sample);
  if (to > from) {
    std::copy(sorted + from + 1, sorted + to, sorted + from);
    sorted[to - 1] = sample;
  } else {
    std::copy_backward(sorted + to, sorted + from, sorted + from + 1);
    sorted[to] = sample;
  }
}

double IndexableWindow::Percentile(double p) const {
  CRF_CHECK(!ring_.empty());
  CRF_CHECK_GE(p, 0.0);
  CRF_CHECK_LE(p, 100.0);
  const int count = static_cast<int>(ring_.size());
  if (count == 1) {
    return sorted_[0];
  }
  const double rank = p / 100.0 * static_cast<double>(count - 1);
  const int lo = static_cast<int>(rank);
  const int hi = std::min(lo + 1, count - 1);
  const double frac = rank - static_cast<double>(lo);
  const float lo_value = sorted_[lo];
  const float hi_value = sorted_[hi];
  return lo_value + frac * (hi_value - lo_value);
}

double IndexableWindow::Mean() const {
  if (ring_.empty()) {
    return 0.0;
  }
  return sum_ / static_cast<double>(ring_.size());
}

template <typename Io, typename Self>
void IndexableWindow::Transfer(Io& io, Self& self) {
  io.Expect(int32_t{self.capacity_});
  io.Field(self.head_);
  io.Field(self.ring_, self.capacity_);
  io.Fields(self.sum_, self.pushes_until_sum_refresh_);
  io.Check([&] {
    const int count = static_cast<int>(self.ring_.size());
    const int refresh = self.pushes_until_sum_refresh_;
    return self.head_ >= 0 &&
           (count < self.capacity_ ? self.head_ == 0 : self.head_ < self.capacity_) &&
           std::isfinite(self.sum_) && refresh > 0 && refresh <= kSumRefreshPeriod &&
           std::ranges::all_of(self.ring_, [](float v) { return std::isfinite(v); });
  });
  if constexpr (Io::kLoading) {
    if (io.ok()) {
      const auto live = self.sorted_.begin() + self.size();
      std::copy(self.ring_.begin(), self.ring_.end(), self.sorted_.begin());
      std::sort(self.sorted_.begin(), live);
      std::fill(live, self.sorted_.end(), kPadding);
    }
  }
}
CRF_INSTANTIATE_TRANSFER(IndexableWindow);

float IndexableWindow::Latest() const {
  CRF_CHECK(!ring_.empty());
  if (static_cast<int>(ring_.size()) < capacity_) {
    return ring_.back();
  }
  // head_ points at the oldest; the newest sits just before it.
  return ring_[(head_ + capacity_ - 1) % capacity_];
}

}  // namespace crf
