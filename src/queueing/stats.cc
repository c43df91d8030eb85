#include "queueing/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace phoenix::queueing {

void RunningStats::Add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::Clear() { *this = RunningStats(); }

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::second_moment() const {
  return variance() + mean() * mean();
}

WindowedStats::WindowedStats(std::size_t window) : window_(window) {
  PHOENIX_CHECK_MSG(window > 0, "window must be positive");
}

void WindowedStats::Add(double x) {
  // The new sample is added before the evicted one is subtracted, so the
  // running sums round exactly as a push-then-pop window's would.
  sum_ += x;
  sum_sq_ += x * x;
  if (samples_.size() < window_) {
    samples_.push_back(x);
    return;
  }
  const double old = samples_[oldest_];
  samples_[oldest_] = x;
  oldest_ = oldest_ + 1 == window_ ? 0 : oldest_ + 1;
  sum_ -= old;
  sum_sq_ -= old * old;
}

void WindowedStats::Clear() {
  samples_.clear();
  oldest_ = 0;
  sum_ = 0.0;
  sum_sq_ = 0.0;
}

double WindowedStats::mean() const {
  if (samples_.empty()) return 0.0;
  return sum_ / static_cast<double>(samples_.size());
}

double WindowedStats::second_moment() const {
  if (samples_.empty()) return 0.0;
  // Guard against tiny negative values from float cancellation.
  return std::max(0.0, sum_sq_ / static_cast<double>(samples_.size()));
}

Ewma::Ewma(double alpha) : alpha_(alpha) {
  PHOENIX_CHECK_MSG(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
}

void Ewma::Add(double x) {
  if (!seeded_) {
    value_ = x;
    seeded_ = true;
  } else {
    value_ = alpha_ * x + (1.0 - alpha_) * value_;
  }
}

}  // namespace phoenix::queueing
