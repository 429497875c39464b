// Measurement helpers for the on-demand registration ablation
// (`run_all --bench ablation_registration`).
#pragma once

#include <cstdint>
#include <string>

#include "bench_util.hpp"
#include "sim/random.hpp"

namespace odcm::bench {

/// One point of the registration sweep: seeded random RMA traffic over a
/// multi-chunk heap, with a tunable share of touches confined to a small
/// hot working set of chunks.
struct RegSweepConfig {
  std::uint64_t seed = 1;
  std::uint32_t pes = 8;
  std::uint64_t heap_bytes = 256 << 10;
  std::uint64_t chunk_bytes = 16 << 10;
  std::uint64_t pin_cap_bytes = 0;  ///< 0 = uncapped
  /// Probability that a touch lands in the 2-chunk hot set; the rest are
  /// uniform over the whole heap. 1.0 = perfectly local, 0.0 = scattered.
  double locality = 1.0;
  std::uint32_t rounds = 24;
  bool on_demand = true;  ///< false = eager baseline, same traffic
};

struct RegSweepSample {
  double wall_s = 0;
  double eager_reg_s = 0;    ///< mean start_pes "memory_registration" phase
  double lazy_reg_s = 0;     ///< mean data-path "lazy_registration" phase
  double faults = 0;         ///< mean reg_faults_served per PE
  double evictions = 0;      ///< mean reg_evictions per PE
  double pinned_hw_bytes = 0;  ///< mean pinned high-water per PE
};

/// Run the traffic pattern once and collect the registration costs. Every
/// PE writes 8-byte values to its ring successor at chunk-selected offsets;
/// PPN is 1 so all traffic takes the RC (registration-checked) path.
inline RegSweepSample reg_sweep_sample(const RegSweepConfig& sweep) {
  core::ConduitConfig conduit = core::proposed_design();
  shmem::ShmemJobConfig config = paper_job(sweep.pes, 1, conduit);
  config.shmem.heap_bytes = sweep.heap_bytes;
  config.job.fabric.seed = sweep.seed;
  if (sweep.on_demand) {
    config.shmem.registration = shmem::RegistrationMode::kOnDemand;
    config.shmem.reg_chunk_bytes = sweep.chunk_bytes;
    config.shmem.reg_pinned_max_bytes = sweep.pin_cap_bytes;
  }
  const auto chunks =
      static_cast<std::uint32_t>(sweep.heap_bytes / sweep.chunk_bytes);
  sim::Engine engine;
  shmem::ShmemJob job(engine, config);
  sim::Time wall = job.run([&sweep, chunks](shmem::ShmemPe& pe)
                               -> sim::Task<> {
    co_await pe.start_pes();
    co_await pe.barrier_all();
    const auto dst =
        static_cast<shmem::RankId>((pe.rank() + 1) % sweep.pes);
    sim::Rng rng(sweep.seed * 7919 + pe.rank());
    for (std::uint32_t round = 0; round < sweep.rounds; ++round) {
      std::uint32_t chunk =
          rng.chance(sweep.locality)
              ? static_cast<std::uint32_t>(rng.next_below(2))
              : static_cast<std::uint32_t>(rng.next_below(chunks));
      shmem::SymAddr addr =
          std::uint64_t{chunk} * sweep.chunk_bytes + 8 * pe.rank();
      co_await pe.put_value<std::uint64_t>(dst, addr, round);
    }
    co_await pe.finalize();
  });
  RegSweepSample sample;
  sample.wall_s = sim::to_seconds(wall);
  sample.eager_reg_s = mean_phase_s(job, "memory_registration");
  sample.lazy_reg_s = mean_phase_s(job, "lazy_registration");
  sample.faults = mean_counter(job, "reg_faults_served");
  sample.evictions = mean_counter(job, "reg_evictions");
  sample.pinned_hw_bytes = mean_counter(job, "reg_pinned_highwater_bytes");
  return sample;
}

}  // namespace odcm::bench
