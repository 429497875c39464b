// ShmemJob: a whole simulated OpenSHMEM job.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/conduit.hpp"
#include "shmem/config.hpp"
#include "shmem/pe.hpp"

namespace odcm::shmem {

class ShmemJob {
 public:
  ShmemJob(sim::Engine& engine, ShmemJobConfig config);
  ShmemJob(const ShmemJob&) = delete;
  ShmemJob& operator=(const ShmemJob&) = delete;

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] const ShmemConfig& shmem_config() const noexcept {
    return config_.shmem;
  }
  [[nodiscard]] core::ConduitJob& conduit_job() noexcept {
    return *conduit_job_;
  }
  [[nodiscard]] std::uint32_t n_pes() const noexcept {
    return conduit_job_->ranks();
  }
  [[nodiscard]] ShmemPe& pe(RankId rank);

  /// `rank`'s symmetric-segment triplet, written once by that PE during
  /// start_pes. Every PE reads this one copy; which peers a PE has
  /// learned is its own `core::RankSet` (DESIGN.md §5.21).
  [[nodiscard]] const SegmentInfo& segment(RankId rank) const {
    return segment_directory_.at(rank);
  }

  /// Spawn `program` on every PE; conduits finalize after all complete.
  /// The caller runs the engine.
  void spawn_all(std::function<sim::Task<>(ShmemPe&)> program);

  /// Convenience: spawn_all + engine.run(); returns the job makespan.
  sim::Time run(std::function<sim::Task<>(ShmemPe&)> program);

 private:
  friend class ShmemPe;  // publishes its own directory entry

  sim::Engine& engine_;
  ShmemJobConfig config_;
  std::unique_ptr<core::ConduitJob> conduit_job_;
  std::vector<std::unique_ptr<ShmemPe>> pes_{};
  std::vector<SegmentInfo> segment_directory_{};
};

}  // namespace odcm::shmem
