// Job-wide metrics registry: named counters and log-bucketed virtual-time
// histograms.
//
// `Telemetry::finish` folds the job's `sim::StatSet`s in once: each counter
// summed over PEs, and each phase as one histogram sample per PE that
// touched it (that PE's total). The protocol stream feeds the event-derived
// `conn/*`, `reg/*` and `bulk/*` names through
// `telemetry::ConnectionTimeline`, and benches record into it directly. All
// state is deterministic — identical simulation runs produce identical
// registries — and everything operates on *virtual* time, so observation
// never perturbs the simulated clock. A disabled session
// (`Telemetry(false)`) records nothing at all.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/json.hpp"

namespace odcm::telemetry {

/// Log-bucketed histogram of virtual-time durations (or any non-negative
/// 64-bit magnitude). Bucket `i` holds values whose bit width is `i`, i.e.
/// value 0 → bucket 0, values [2^(i-1), 2^i) → bucket i. Alongside the
/// buckets the histogram retains exact samples up to `kSampleCap`, so
/// percentiles are *exact* (nearest-rank over the sorted samples) for every
/// realistic run; past the cap it degrades to deterministic bucket
/// upper-bound estimates.
class Histogram {
 public:
  static constexpr std::size_t kBucketCount = 65;
  static constexpr std::size_t kSampleCap = 1 << 16;

  void observe(std::uint64_t value);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept {
    return count_ == 0 ? 0 : min_;
  }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }

  /// Nearest-rank percentile, `p` in [0, 100]. Exact while the sample set
  /// fits `kSampleCap`; bucket upper bound afterwards. Deterministic either
  /// way.
  [[nodiscard]] std::uint64_t percentile(double p) const;

  [[nodiscard]] bool exact() const noexcept {
    return count_ <= kSampleCap;
  }
  [[nodiscard]] const std::array<std::uint64_t, kBucketCount>& buckets()
      const noexcept {
    return buckets_;
  }

  /// Bucket index for a value (0 for 0, else bit width).
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t value) noexcept;
  /// Inclusive upper bound of bucket `i`.
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t index) noexcept;

  /// Summary object: {count, sum, min, max, mean, p50, p95, p99}.
  [[nodiscard]] JsonValue to_json() const;

 private:
  std::array<std::uint64_t, kBucketCount> buckets_{};
  // Sorted lazily by percentile(); mutable so queries stay const.
  mutable std::vector<std::uint64_t> samples_{};
  mutable bool sorted_ = true;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~0ULL;
  std::uint64_t max_ = 0;
};

/// Named counters / histograms, keyed by string. Lookup maps are ordered so
/// every export iterates deterministically.
class MetricsRegistry {
 public:
  /// Move counter `name` by `delta`.
  void add(std::string_view name, std::int64_t delta = 1);
  /// Record one duration/magnitude sample into histogram `name`.
  void observe(std::string_view name, std::uint64_t value);

  [[nodiscard]] std::int64_t counter(std::string_view name) const;
  /// nullptr when no sample was ever recorded under `name`.
  [[nodiscard]] const Histogram* histogram(std::string_view name) const;

  [[nodiscard]] const std::map<std::string, std::int64_t, std::less<>>&
  counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Histogram, std::less<>>&
  histograms() const noexcept {
    return histograms_;
  }

  /// Full registry export:
  /// {counters:{}, histograms:{name: summary}}.
  [[nodiscard]] JsonValue to_json() const;

 private:
  std::map<std::string, std::int64_t, std::less<>> counters_{};
  std::map<std::string, Histogram, std::less<>> histograms_{};
};

}  // namespace odcm::telemetry
