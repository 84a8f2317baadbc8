// Log-linear latency histogram: the one mergeable timing distribution of
// the stack, behind the per-OpKind guard-phase profiles (obs/op_profile.hpp)
// and the serving telemetry's latency/TTFT distributions.
//
// Layout, in the recorded unit (ns throughout this repo): values 0..15 get
// exact unit buckets; each power-of-two octave [2^e, 2^(e+1)) above them is
// split into 16 linear sub-buckets of width 2^(e-4), so a bucket's largest
// value overstates any sample in it by less than 1/16. Forty octaves cover
// ~18 minutes in ns; larger values clamp into the top bucket. The fixed
// shape makes histograms from different threads, scenarios or processes
// mergeable by bucket-wise addition. Exact count, sum, min and max ride
// alongside.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace flashabft::obs {

struct LogHistogram {
  static constexpr std::size_t kSubBits = 4;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;
  static constexpr std::size_t kOctaves = 40;
  /// The unit buckets plus kSubBuckets per octave from 2^kSubBits up.
  static constexpr std::size_t kBuckets =
      kSubBuckets * (kOctaves - kSubBits + 1);

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t total = 0;  ///< exact sum of recorded values.
  std::uint64_t min = 0;    ///< exact; 0 when empty.
  std::uint64_t max = 0;    ///< exact; 0 when empty.

  /// Bucket index of `value`, clamped into range.
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t value) {
    if (value < kSubBuckets) return std::size_t(value);
    const std::size_t octave = std::size_t(std::bit_width(value)) - 1;
    if (octave >= kOctaves) return kBuckets - 1;
    const std::size_t shift = octave - kSubBits;
    return (shift + 1) * kSubBuckets +
           (std::size_t(value >> shift) - kSubBuckets);
  }

  /// Smallest value of bucket i.
  [[nodiscard]] static std::uint64_t bucket_floor(std::size_t i) {
    if (i < kSubBuckets) return i;
    const std::size_t shift = i / kSubBuckets - 1;
    return std::uint64_t(kSubBuckets + i % kSubBuckets) << shift;
  }

  /// Largest value of bucket i (inclusive: a Prometheus `le` edge).
  [[nodiscard]] static std::uint64_t bucket_max(std::size_t i) {
    return bucket_floor(i + 1) - 1;
  }

  void add(std::uint64_t value) {
    ++buckets[bucket_of(value)];
    if (count == 0 || value < min) min = value;
    max = std::max(max, value);
    ++count;
    total += value;
  }

  /// Bucket-wise sum — exact for count/total/min/max and lossless for the
  /// distribution at bucket resolution, in any merge order.
  void merge(const LogHistogram& other) {
    if (other.count == 0) return;
    for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
    if (count == 0 || other.min < min) min = other.min;
    max = std::max(max, other.max);
    count += other.count;
    total += other.total;
  }

  [[nodiscard]] bool operator==(const LogHistogram&) const = default;

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : double(total) / double(count);
  }

  /// The p-th percentile (p in [0, 1]) by nearest rank: the largest value
  /// of the bucket holding the ceil(p * count)-th sample, clamped to
  /// [min, max]. So it lies in [exact, exact * (1 + 1/16)], and a stream of
  /// equal values reads back exactly. 0 when empty.
  [[nodiscard]] std::uint64_t percentile(double p) const {
    if (count == 0) return 0;
    const auto rank = std::max<std::uint64_t>(
        1, std::uint64_t(std::ceil(std::clamp(p, 0.0, 1.0) * double(count))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += buckets[i];
      if (seen >= rank) return std::min(std::max(bucket_max(i), min), max);
    }
    return max;
  }
};

/// Lock-free recorder of a LogHistogram: relaxed atomic counters, so any
/// number of threads record into one instance without a lock. A snapshot
/// reads each counter atomically; cross-counter skew is bounded by the
/// records still in flight.
class AtomicHistogram {
 public:
  void record(std::uint64_t value) {
    buckets_[LogHistogram::bucket_of(value)].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    total_.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t seen = min_.load(std::memory_order_relaxed);
    while (value < seen &&
           !min_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] LogHistogram snapshot() const {
    LogHistogram out;
    for (std::size_t i = 0; i < LogHistogram::kBuckets; ++i) {
      out.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    out.count = count_.load(std::memory_order_relaxed);
    out.total = total_.load(std::memory_order_relaxed);
    const std::uint64_t min = min_.load(std::memory_order_relaxed);
    out.min = min == kEmptyMin ? 0 : min;
    out.max = max_.load(std::memory_order_relaxed);
    return out;
  }

  void clear() {
    for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    total_.store(0, std::memory_order_relaxed);
    min_.store(kEmptyMin, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint64_t kEmptyMin = ~std::uint64_t{0};

  std::array<std::atomic<std::uint64_t>, LogHistogram::kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> min_{kEmptyMin};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace flashabft::obs
