#include "crf/core/predictor.h"

#include <algorithm>

namespace crf {

double ClampPrediction(double raw, double usage_now, double limit_sum) {
  return std::clamp(raw, std::min(usage_now, limit_sum), limit_sum);
}

}  // namespace crf
