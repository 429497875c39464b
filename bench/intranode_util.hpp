// Measurement helpers for the intra-node transport measurements of
// `run_all` (`ablation_intranode`, and fig9's shm RC-QP series).
#pragma once

#include <cstdint>
#include <vector>

#include "apps/hello.hpp"
#include "bench_util.hpp"

namespace odcm::bench {

/// Mean same-node put latency (us) between two PEs on one node, measured on
/// PE 0 after a warm-up put (which absorbs the RC connection setup when the
/// rc transport is selected).
inline double same_node_put_us(std::uint64_t seed, std::uint32_t ppn,
                               core::IntranodeTransport transport,
                               std::uint32_t bytes) {
  constexpr std::uint32_t kIters = 32;
  core::ConduitConfig conduit = core::proposed_design();
  conduit.intranode_transport = transport;
  shmem::ShmemJobConfig config = paper_job(ppn, ppn, conduit);
  config.job.fabric.seed = seed;
  sim::Engine engine;
  shmem::ShmemJob job(engine, config);
  double latency_us = 0;
  job.spawn_all([bytes, &latency_us](shmem::ShmemPe& pe) -> sim::Task<> {
    co_await pe.start_pes();
    shmem::SymAddr slot = pe.heap().allocate(bytes, 8);
    co_await pe.barrier_all();
    if (pe.rank() == 0) {
      std::vector<std::byte> buf(bytes, std::byte{0x5a});
      co_await pe.put(1, slot, buf);  // warm-up: connection setup, if any
      sim::Time start = pe.engine().now();
      for (std::uint32_t i = 0; i < kIters; ++i) {
        co_await pe.put(1, slot, buf);
      }
      latency_us = sim::to_usec(pe.engine().now() - start) / kIters;
    }
    co_await pe.barrier_all();
    co_await pe.finalize();
  });
  engine.run();
  return latency_us;
}

struct IntranodeQpSample {
  double rc_qps_total;     // sum of qp_created_rc over all PEs
  double shm_peers_mean;   // mean distinct shm peers per PE
};

/// Run the hello kernel (start_pes + finalize: the init barrier tree is the
/// traffic) and count RC QPs actually created under the given transport.
inline IntranodeQpSample hello_qp_sample(std::uint64_t seed,
                                         std::uint32_t pes, std::uint32_t ppn,
                                         core::IntranodeTransport transport) {
  core::ConduitConfig conduit = core::proposed_design();
  conduit.intranode_transport = transport;
  shmem::ShmemJobConfig config = paper_job(pes, ppn, conduit);
  config.job.fabric.seed = seed;
  sim::Engine engine;
  shmem::ShmemJob job(engine, config);
  job.spawn_all([](shmem::ShmemPe& pe) -> sim::Task<> {
    co_await apps::hello_pe(pe, apps::HelloParams{});
  });
  engine.run();
  IntranodeQpSample sample{};
  for (std::uint32_t r = 0; r < pes; ++r) {
    core::Conduit& conduit_r = job.conduit_job().conduit(r);
    sample.rc_qps_total +=
        static_cast<double>(conduit_r.stats().counter("qp_created_rc"));
    sample.shm_peers_mean += static_cast<double>(conduit_r.shm_peer_count());
  }
  sample.shm_peers_mean /= pes;
  return sample;
}

}  // namespace odcm::bench
