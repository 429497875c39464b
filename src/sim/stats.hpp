// Lightweight instrumentation: named counters and phase timers.
//
// The startup benchmarks (Figs 1, 5) need per-PE breakdowns of where virtual
// time went (PMI exchange, connection setup, memory registration, ...), and
// the resource benchmarks (Fig 9, Table I) need event counts (QPs created,
// connections established, distinct peers). `StatSet` collects both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/metrics_sink.hpp"
#include "sim/stat_names.hpp"
#include "sim/time.hpp"

namespace odcm::sim {

/// One value per `kStatNames` entry plus a touched bit each, allocated on
/// the first `add`: an empty set owns no memory.
template <typename V>
class StatSlots {
 public:
  void add(std::size_t id, V delta) {
    if (values_.empty()) {
      values_.resize(kStatNameCount);
      touched_.resize((kStatNameCount + 63) / 64);
    }
    values_[id] += delta;
    touched_[id / 64] |= std::uint64_t{1} << (id % 64);
  }

  [[nodiscard]] bool touched(std::size_t id) const noexcept {
    return !touched_.empty() && ((touched_[id / 64] >> (id % 64)) & 1) != 0;
  }
  /// Untouched names read 0.
  [[nodiscard]] V value(std::size_t id) const noexcept {
    return values_.empty() ? V{} : values_[id];
  }
  [[nodiscard]] V value(std::string_view name) const noexcept {
    const std::size_t id = find_stat_name(name);
    return id == kStatNameCount ? V{} : value(id);
  }

  void merge(const StatSlots& other) {
    for (std::size_t id = 0; id < kStatNameCount; ++id) {
      if (other.touched(id)) add(id, other.values_[id]);
    }
  }

 private:
  std::vector<V> values_{};
  std::vector<std::uint64_t> touched_{};
};

/// Read view over the touched names of one kind, in `kStatNames` (sorted)
/// order. Iterating yields `std::pair<const std::string&, V>`, so loops
/// written against a `std::map<std::string, V>` read it unchanged.
template <typename V>
class StatView {
 public:
  class iterator {
   public:
    iterator(const StatSlots<V>* slots, std::size_t id)
        : slots_(slots), id_(id) {
      skip_untouched();
    }
    std::pair<const std::string&, V> operator*() const {
      return {stat_name_string(id_), slots_->value(id_)};
    }
    iterator& operator++() {
      ++id_;
      skip_untouched();
      return *this;
    }
    bool operator==(const iterator& other) const noexcept {
      return id_ == other.id_;
    }

   private:
    void skip_untouched() {
      while (id_ < kStatNameCount && !slots_->touched(id_)) ++id_;
    }

    const StatSlots<V>* slots_;
    std::size_t id_;
  };

  explicit StatView(const StatSlots<V>& slots) : slots_(&slots) {}

  [[nodiscard]] iterator begin() const { return {slots_, 0}; }
  [[nodiscard]] iterator end() const { return {slots_, kStatNameCount}; }
  [[nodiscard]] bool empty() const { return begin() == end(); }

 private:
  const StatSlots<V>* slots_;
};

/// A bag of named integer counters and named accumulated durations.
///
/// Names are `StatName`s (see `stat_names.hpp`). A name reads back once it
/// has been touched, even by a delta of 0; untouched names read 0.
///
/// An optional `MetricsSink` (set by the telemetry subsystem when attached)
/// receives every observation as it happens; with no sink installed the
/// forwarding costs one branch.
class StatSet {
 public:
  /// Increment counter `name` by `delta`.
  void add(StatName name, std::int64_t delta = 1) {
    counters_.add(name.id(), delta);
    if (sink_ != nullptr) sink_->on_counter(name.view(), delta);
  }

  /// Accumulate `dt` of virtual time into phase `name`.
  void add_time(StatName name, Time dt) {
    phases_.add(name.id(), dt);
    if (sink_ != nullptr) sink_->on_duration(name.view(), dt);
  }

  /// Install (or clear, with nullptr) the live observation sink. The sink
  /// must outlive the stat set or be detached before destruction.
  void set_sink(MetricsSink* sink) noexcept { sink_ = sink; }
  [[nodiscard]] MetricsSink* sink() const noexcept { return sink_; }

  [[nodiscard]] std::int64_t counter(std::string_view name) const noexcept {
    return counters_.value(name);
  }

  [[nodiscard]] Time phase_time(std::string_view name) const noexcept {
    return phases_.value(name);
  }

  /// The touched counters and phases, sorted by name.
  [[nodiscard]] StatView<std::int64_t> counters() const {
    return StatView<std::int64_t>(counters_);
  }
  [[nodiscard]] StatView<Time> phases() const {
    return StatView<Time>(phases_);
  }

  /// Merge another stat set into this one (for job-wide aggregation).
  void merge(const StatSet& other) {
    counters_.merge(other.counters_);
    phases_.merge(other.phases_);
  }

  void clear() {
    counters_ = {};
    phases_ = {};
  }

 private:
  StatSlots<std::int64_t> counters_{};
  StatSlots<Time> phases_{};
  MetricsSink* sink_ = nullptr;
};

/// RAII-style phase timer against the virtual clock.
///
///   {
///     PhaseTimer timer(engine, stats, "pmi_exchange");
///     co_await client.fence();
///   }   // elapsed virtual time accumulated into "pmi_exchange"
///
/// NOTE: with coroutines the destructor runs on the awaiting task's frame
/// destruction path as usual; the pattern works because the frame lives
/// across suspensions.
class PhaseTimer {
 public:
  PhaseTimer(Engine& engine, StatSet& stats, StatName phase)
      : engine_(&engine), stats_(&stats), phase_(phase), start_(engine.now()) {}
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  ~PhaseTimer() { stop(); }

  /// Stop early (idempotent).
  void stop() {
    if (stats_ != nullptr) {
      stats_->add_time(phase_, engine_->now() - start_);
      stats_ = nullptr;
    }
  }

 private:
  Engine* engine_;
  StatSet* stats_;
  StatName phase_;
  Time start_;
};

}  // namespace odcm::sim
