// Small statistics helpers for the fabric benchmark: exact percentiles over
// sample vectors, and a log-linear histogram for the per-packet streams
// (millions of samples) that must stay allocation-free while measuring.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace fabricbench {

/// Nearest-rank percentile (p in [0, 100]) of `samples`; 0 when empty.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

/// Log-linear histogram of non-negative integers (nanoseconds): 256
/// sub-buckets per power of two, so every reported quantile is within 0.4%
/// of an observed value. Fixed storage; add() never allocates.
class LogHistogram {
 public:
  void add(std::uint64_t v) {
    ++counts_[bucket_of(v)];
    ++total_;
    sum_ += v;
  }

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return total_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(total_);
  }

  /// Nearest-rank quantile (p in [0, 100]) at the bucket midpoint; 0 when empty.
  [[nodiscard]] double quantile(double p) const {
    if (total_ == 0) return 0.0;
    const double rank = std::ceil(p / 100.0 * static_cast<double>(total_));
    const std::uint64_t target = rank < 1.0 ? 1 : static_cast<std::uint64_t>(rank);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += counts_[b];
      if (seen >= target) return midpoint(b);
    }
    return midpoint(kBuckets - 1);
  }

  /// Highest non-empty bucket's midpoint; 0 when empty.
  [[nodiscard]] double max() const { return quantile(100.0); }

  /// Folds the bucket counts into `h` (FNV-1a) for same-seed digests.
  [[nodiscard]] std::uint64_t digest(std::uint64_t h) const {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (counts_[b] == 0) continue;
      h = (h ^ b) * 0x100000001B3ull;
      h = (h ^ counts_[b]) * 0x100000001B3ull;
    }
    return h;
  }

 private:
  static constexpr unsigned kSubBits = 8;
  static constexpr std::uint64_t kSub = 1ull << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  static std::size_t bucket_of(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned shift = static_cast<unsigned>(std::bit_width(v)) - kSubBits - 1;
    return static_cast<std::size_t>((shift + 1) * kSub + ((v >> shift) - kSub));
  }
  static double midpoint(std::size_t b) {
    if (b < kSub) return static_cast<double>(b);
    const std::size_t shift = b / kSub - 1;
    const double lo = static_cast<double>((kSub + b % kSub) << shift);
    return lo + static_cast<double>((1ull << shift) - 1) / 2.0;
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
};

}  // namespace fabricbench
