// Latency histogram with logarithmic-ish bucketing (HdrHistogram style).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace copbft {

/// Records non-negative integer samples (e.g. latency in microseconds) and
/// reports count/mean/percentiles. Buckets grow geometrically so memory is
/// bounded while relative error stays below ~3%.
class Histogram {
 public:
  Histogram() : buckets_(kNumBuckets, 0) {}

  void record(std::uint64_t value) {
    ++count_;
    sum_ += value;
    max_ = std::max(max_, value);
    min_ = std::min(min_, value);
    ++buckets_[bucket_index(value)];
  }

  void merge(const Histogram& other) {
    count_ += other.count_;
    sum_ += other.sum_;
    max_ = std::max(max_, other.max_);
    min_ = std::min(min_, other.min_);
    for (std::size_t i = 0; i < kNumBuckets; ++i)
      buckets_[i] += other.buckets_[i];
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t max() const { return count_ ? max_ : 0; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }

  /// Value at quantile q in [0,1]; returns the *highest* value contained
  /// in the bucket holding the q-th sample (HdrHistogram convention),
  /// clamped to the observed maximum. Reporting the bucket's lower edge
  /// instead would systematically under-state tail percentiles by up to
  /// the ~3% bucket width; the upper edge guarantees
  /// percentile(q) >= the exact q-th sample.
  std::uint64_t percentile(double q) const {
    if (count_ == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    std::uint64_t rank = static_cast<std::uint64_t>(q * (count_ - 1)) + 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= rank) return std::min(bucket_upper(i), max_);
    }
    return max_;
  }

  void reset() {
    count_ = 0;
    sum_ = 0;
    max_ = 0;
    min_ = ~0ULL;
    std::fill(buckets_.begin(), buckets_.end(), 0);
  }

  // The bucketing is public so wait-free metric variants (see
  // common/metrics.hpp) can share it and assemble snapshots via
  // from_parts().

  // 64 exponent groups x 32 sub-buckets: ~3% relative resolution up to 2^63.
  static constexpr std::size_t kSubBits = 5;
  static constexpr std::size_t kSubBuckets = 1 << kSubBits;
  static constexpr std::size_t kNumBuckets = 64 * kSubBuckets;

  static std::size_t bucket_index(std::uint64_t v) {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    int msb = 63 - __builtin_clzll(v);
    std::size_t group = static_cast<std::size_t>(msb) - kSubBits + 1;
    std::size_t sub = (v >> (msb - static_cast<int>(kSubBits))) & (kSubBuckets - 1);
    return group * kSubBuckets + sub;
  }

  /// Highest value mapping to bucket `index`.
  static std::uint64_t bucket_upper(std::size_t index) {
    std::size_t group = index / kSubBuckets;
    std::size_t sub = index % kSubBuckets;
    if (group == 0) return sub;
    int shift = static_cast<int>(group) - 1;
    return (((kSubBuckets + sub + 1) << shift)) - 1;
  }

  /// Assembles a histogram from externally accumulated state; `buckets`
  /// must hold kNumBuckets counts in bucket_index() order.
  static Histogram from_parts(std::uint64_t count, std::uint64_t sum,
                              std::uint64_t min, std::uint64_t max,
                              const std::uint64_t* buckets) {
    Histogram h;
    h.count_ = count;
    h.sum_ = sum;
    h.min_ = count ? min : ~0ULL;
    h.max_ = max;
    h.buckets_.assign(buckets, buckets + kNumBuckets);
    return h;
  }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
  std::uint64_t min_ = ~0ULL;
  std::vector<std::uint64_t> buckets_;
};

}  // namespace copbft
