#include "crf/stats/p2_quantile.h"

#include <algorithm>
#include <cmath>

#include "crf/util/byte_io.h"
#include "crf/util/check.h"

namespace crf {

P2Quantile::P2Quantile(double quantile) : quantile_(quantile) {
  CRF_CHECK_GT(quantile, 0.0);
  CRF_CHECK_LT(quantile, 1.0);
  desired_ = {1.0, 1.0 + 2.0 * quantile_, 1.0 + 4.0 * quantile_, 3.0 + 2.0 * quantile_, 5.0};
  desired_increment_ = {0.0, quantile_ / 2.0, quantile_, (1.0 + quantile_) / 2.0, 1.0};
}

void P2Quantile::Add(double value) {
  if (count_ < 5) {
    heights_[count_] = value;
    ++count_;
    if (count_ == 5) {
      std::sort(heights_.begin(), heights_.end());
      for (int i = 0; i < 5; ++i) {
        positions_[i] = i + 1;
      }
    }
    return;
  }

  // Find the cell k containing the new observation and update extremes.
  int k;
  if (value < heights_[0]) {
    heights_[0] = value;
    k = 0;
  } else if (value >= heights_[4]) {
    heights_[4] = std::max(heights_[4], value);
    k = 3;
  } else {
    k = 0;
    while (k < 3 && value >= heights_[k + 1]) {
      ++k;
    }
  }

  for (int i = k + 1; i < 5; ++i) {
    positions_[i] += 1.0;
  }
  for (int i = 0; i < 5; ++i) {
    desired_[i] += desired_increment_[i];
  }
  ++count_;

  // Adjust interior markers toward their desired positions.
  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const bool move_right = d >= 1.0 && positions_[i + 1] - positions_[i] > 1.0;
    const bool move_left = d <= -1.0 && positions_[i - 1] - positions_[i] < -1.0;
    if (!move_right && !move_left) {
      continue;
    }
    const double sign = move_right ? 1.0 : -1.0;
    // Piecewise-parabolic prediction of the new height.
    const double qp = heights_[i] +
                      sign / (positions_[i + 1] - positions_[i - 1]) *
                          ((positions_[i] - positions_[i - 1] + sign) *
                               (heights_[i + 1] - heights_[i]) /
                               (positions_[i + 1] - positions_[i]) +
                           (positions_[i + 1] - positions_[i] - sign) *
                               (heights_[i] - heights_[i - 1]) /
                               (positions_[i] - positions_[i - 1]));
    if (heights_[i - 1] < qp && qp < heights_[i + 1]) {
      heights_[i] = qp;
    } else {
      // Fall back to linear prediction toward the neighbor.
      const int j = move_right ? i + 1 : i - 1;
      heights_[i] += sign * (heights_[j] - heights_[i]) / (positions_[j] - positions_[i]);
    }
    positions_[i] += sign;
  }
}

void P2Quantile::Reset() {
  count_ = 0;
  heights_.fill(0.0);
  positions_.fill(0.0);
  desired_ = {1.0, 1.0 + 2.0 * quantile_, 1.0 + 4.0 * quantile_, 3.0 + 2.0 * quantile_, 5.0};
}

template <typename Io, typename Self>
void P2Quantile::Transfer(Io& io, Self& self) {
  io.Expect(self.quantile_);
  io.Fields(self.count_, self.heights_, self.positions_, self.desired_);
  io.Check([&] {
    if (self.count_ < 0) {
      return false;
    }
    for (int i = 0; i < 5; ++i) {
      if (!std::isfinite(self.heights_[i]) || !std::isfinite(self.positions_[i]) ||
          !std::isfinite(self.desired_[i])) {
        return false;
      }
    }
    if (self.count_ < 5) {
      return true;
    }
    // Past the warm-up buffer the markers are ordered: heights non-decreasing,
    // positions strictly increasing from 1 with the last marker at `count`.
    for (int i = 1; i < 5; ++i) {
      if (self.heights_[i] < self.heights_[i - 1] ||
          self.positions_[i] <= self.positions_[i - 1]) {
        return false;
      }
    }
    return self.positions_[0] == 1.0 &&
           self.positions_[4] == static_cast<double>(self.count_);
  });
}
CRF_INSTANTIATE_TRANSFER(P2Quantile);

double P2Quantile::Value() const {
  if (count_ == 0) {
    return 0.0;
  }
  if (count_ < 5) {
    // Exact from the (unsorted) buffer of up to 4 values.
    std::array<double, 5> copy = heights_;
    std::sort(copy.begin(), copy.begin() + count_);
    const double rank = quantile_ * static_cast<double>(count_ - 1);
    const int lo = static_cast<int>(rank);
    const int hi = std::min<int>(lo + 1, static_cast<int>(count_) - 1);
    const double frac = rank - lo;
    return copy[lo] + frac * (copy[hi] - copy[lo]);
  }
  return heights_[2];
}

}  // namespace crf
