#include "shmem/job.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace odcm::shmem {

ShmemJob::ShmemJob(sim::Engine& engine, ShmemJobConfig config)
    : engine_(engine), config_(config) {
  const ShmemConfig& shmem = config_.shmem;
  if (shmem.collective_fanout == 0) {
    throw std::invalid_argument(
        "ShmemJob: shmem.collective_fanout must be >= 1");
  }
  if (shmem.wait_poll_interval == 0) {
    // wait_until would re-poll without advancing virtual time: a livelock.
    throw std::invalid_argument(
        "ShmemJob: shmem.wait_poll_interval must be > 0");
  }
  if (!std::isfinite(shmem.local_bytes_per_ns) ||
      shmem.local_bytes_per_ns <= 0) {
    throw std::invalid_argument(
        "ShmemJob: shmem.local_bytes_per_ns must be finite and > 0");
  }
  if (shmem.registration == RegistrationMode::kOnDemand) {
    // The same bounds RegistrationCache enforces, checked before start_pes.
    if (shmem.reg_chunk_bytes == 0 || shmem.reg_chunk_bytes % 8 != 0) {
      throw std::invalid_argument(
          "ShmemJob: shmem.reg_chunk_bytes must be a non-zero multiple of 8");
    }
    if (shmem.reg_pinned_max_bytes != 0 &&
        shmem.reg_pinned_max_bytes <
            std::min(shmem.reg_chunk_bytes, shmem.heap_bytes)) {
      throw std::invalid_argument(
          "ShmemJob: shmem.reg_pinned_max_bytes must be 0 or at least one "
          "chunk");
    }
  }
  conduit_job_ = std::make_unique<core::ConduitJob>(engine_, config_.job);
  segment_directory_.resize(conduit_job_->ranks());
  pes_.reserve(conduit_job_->ranks());
  for (RankId rank = 0; rank < conduit_job_->ranks(); ++rank) {
    pes_.push_back(std::make_unique<ShmemPe>(*this, rank));
  }
}

ShmemPe& ShmemJob::pe(RankId rank) {
  if (rank >= pes_.size()) {
    throw std::out_of_range("ShmemJob::pe: bad rank");
  }
  return *pes_[rank];
}

void ShmemJob::spawn_all(std::function<sim::Task<>(ShmemPe&)> program) {
  auto shared =
      std::make_shared<std::function<sim::Task<>(ShmemPe&)>>(
          std::move(program));
  conduit_job_->spawn_all(
      [this, shared](core::Conduit& conduit) -> sim::Task<> {
        co_await (*shared)(pe(conduit.rank()));
      });
}

sim::Time ShmemJob::run(std::function<sim::Task<>(ShmemPe&)> program) {
  sim::Time start = engine_.now();
  spawn_all(std::move(program));
  engine_.run();
  return engine_.now() - start;
}

}  // namespace odcm::shmem
