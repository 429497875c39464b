// Telemetry session: one object wiring the whole observation pipeline to a
// running job.
//
//   sim::Engine engine;
//   core::ConduitJob job(engine, config);       // or shmem::ShmemJob's
//   telemetry::Telemetry tel;                    //   .conduit_job()
//   tel.attach(job);
//   ...run...
//   tel.finish(engine.now());
//   telemetry::export_chrome_trace(out, tel.timeline(), job.ranks());
//
// `attach` adds the `ConnectionTimeline` to the job's protocol observers;
// that is the only hook. `finish` then folds the job's counters into the
// registry, once: every conduit `sim::StatSet` counter and the PMI job
// manager's `pmi/...` counters are summed under their own names, and every
// phase becomes a histogram with one sample per PE that touched it, that
// PE's total. Observation never schedules a simulation event, so an
// attached run's virtual times are bit-identical to a detached one's.
//
// A disabled session (`Telemetry(false)`) attaches nothing and folds
// nothing; this is the zero-cost-off switch the benches use.
#pragma once

#include "core/conduit.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/timeline.hpp"

namespace odcm::telemetry {

class Telemetry {
 public:
  explicit Telemetry(bool enabled = true)
      : enabled_(enabled), timeline_(&registry_) {}
  ~Telemetry() { detach(); }
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return registry_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept {
    return registry_;
  }
  [[nodiscard]] ConnectionTimeline& timeline() noexcept { return timeline_; }
  [[nodiscard]] const ConnectionTimeline& timeline() const noexcept {
    return timeline_;
  }

  /// Add the timeline to `job`'s protocol observers. No-op when the session
  /// is disabled. The session must outlive the job run (or be detached
  /// first).
  void attach(core::ConduitJob& job) {
    if (!enabled_ || job_ != nullptr) return;
    job_ = &job;
    job.add_observer(&timeline_);
  }

  /// Undo attach(); safe to call repeatedly.
  void detach() {
    if (job_ == nullptr) return;
    job_->remove_observer(&timeline_);
    job_ = nullptr;
  }

  /// Close still-open timeline intervals at virtual time `now` and fold the
  /// attached job's counters and phases into the registry (call after the
  /// engine ran, before exporting). The fold happens on the first call only.
  void finish(sim::Time now) {
    timeline_.finish(now);
    if (job_ == nullptr || folded_) return;
    folded_ = true;
    const sim::StatSet total = job_->aggregate_stats();
    for (const auto& [name, value] : total.counters()) {
      registry_.add(name, value);
    }
    for (core::RankId r = 0; r < job_->ranks(); ++r) {
      for (const auto& [name, pe_total] : job_->conduit(r).stats().phases()) {
        registry_.observe(name, pe_total);
      }
    }
    for (const auto& [name, value] : job_->pmi().stats().counters()) {
      registry_.add(name, value);
    }
  }

 private:
  bool enabled_;
  MetricsRegistry registry_;
  ConnectionTimeline timeline_;
  core::ConduitJob* job_ = nullptr;
  bool folded_ = false;
};

}  // namespace odcm::telemetry
