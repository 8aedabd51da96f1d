#include "crf/core/aggregate_window.h"

#include <algorithm>
#include <cmath>

#include "crf/util/byte_io.h"
#include "crf/util/check.h"

namespace crf {

AggregateWindow::AggregateWindow(int capacity) {
  CRF_CHECK_GT(capacity, 0);
  window_.resize(capacity);
}

void AggregateWindow::Push(double value) {
  if (count_ == static_cast<int>(window_.size())) {
    const double evicted = window_[head_];
    sum_ -= evicted;
    sumsq_ -= evicted * evicted;
    window_[head_] = value;
    head_ = head_ + 1 == count_ ? 0 : head_ + 1;
  } else {
    window_[(head_ + count_) % window_.size()] = value;
    ++count_;
  }
  sum_ += value;
  sumsq_ += value * value;
}

void AggregateWindow::Reset() {
  head_ = 0;
  count_ = 0;
  sum_ = 0.0;
  sumsq_ = 0.0;
}

template <typename Io, typename Self>
void AggregateWindow::Transfer(Io& io, Self& self) {
  const int capacity = static_cast<int>(self.window_.size());
  io.Expect(int32_t{capacity});
  io.Fields(self.head_, self.count_, self.sum_, self.sumsq_);
  // The full physical ring: live samples sit at fixed physical positions and
  // the restored layout must match so future evictions read the same slots.
  io.Field(self.window_, capacity);
  io.Check([&] {
    const int head = self.head_;
    const int count = self.count_;
    if (static_cast<int>(self.window_.size()) != capacity || count < 0 || count > capacity ||
        head < 0 || (count == capacity ? head >= capacity : head != 0) ||
        !std::isfinite(self.sum_) || !std::isfinite(self.sumsq_)) {
      return false;
    }
    for (int i = 0; i < count; ++i) {
      if (!std::isfinite(self.window_[(head + i) % capacity])) {
        return false;
      }
    }
    return true;
  });
}
CRF_INSTANTIATE_TRANSFER(AggregateWindow);

double AggregateWindow::Stddev() {
  const double mean = Mean();
  const double n = static_cast<double>(count_);
  double variance = sumsq_ / n - mean * mean;
  // Incremental sum-of-squares loses ~eps * E[x^2] absolutely; when the
  // computed variance is within that noise floor (flat signals, long runs),
  // recompute exactly and refresh the moments to cancel accumulated drift.
  const double noise_floor = 1e-12 * std::max(sumsq_ / n, 1e-300);
  if (variance < noise_floor) {
    double exact_mean = 0.0;
    double m2 = 0.0;
    double sum = 0.0;
    double sumsq = 0.0;
    for (int i = 0; i < count_; ++i) {
      const double x = window_[(head_ + i) % window_.size()];
      const double delta = x - exact_mean;
      exact_mean += delta / (i + 1);
      m2 += delta * (x - exact_mean);
      sum += x;
      sumsq += x * x;
    }
    sum_ = sum;
    sumsq_ = sumsq;
    variance = m2 / n;
  }
  return std::sqrt(std::max(variance, 0.0));
}

}  // namespace crf
