// Streaming statistics primitives.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace phoenix::queueing {

/// Welford online mean/variance plus raw second moment, min and max.
/// Numerically stable for long simulations.
class RunningStats {
 public:
  void Add(double x);
  void Clear();

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Population variance.
  double variance() const;
  double stddev() const;
  /// E[X^2] — the raw second moment the P-K formula needs.
  double second_moment() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Mean / second moment over the most recent `window` samples. Algorithm 1
/// of the paper estimates λ and μ from "Avg(last serviced tasks)", i.e. a
/// moving window rather than the full history, so estimates track load
/// changes. The samples live in a ring that grows up to the window and
/// then overwrites its oldest slot, so an idle estimator holds no buffer.
class WindowedStats {
 public:
  explicit WindowedStats(std::size_t window = 64);

  void Add(double x);
  void Clear();

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double second_moment() const;
  double sum() const { return sum_; }

 private:
  std::size_t window_;
  std::vector<double> samples_;
  /// Slot of the oldest sample once the ring is full.
  std::size_t oldest_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

/// Exponentially weighted moving average.
class Ewma {
 public:
  /// alpha in (0, 1]: weight of the newest sample.
  explicit Ewma(double alpha = 0.2);

  void Add(double x);
  bool empty() const { return !seeded_; }
  double value() const { return value_; }
  void Clear() { seeded_ = false; value_ = 0.0; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool seeded_ = false;
};

}  // namespace phoenix::queueing
