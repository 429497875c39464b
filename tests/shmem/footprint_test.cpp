// Per-PE memory of peer state: each rank's segment triplet and UD endpoint
// live once per job, and a PE holds only which of them it learned plus
// slots for the peers it touched (DESIGN.md §5.21). A job's live heap grows
// linearly with its size.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdint>
#include <vector>

#include "shmem/job.hpp"
#include "sim/asan.hpp"
#include "test_util.hpp"

#if defined(ODCM_SIM_ASAN)
// ASan's allocator bypasses glibc's, so `mallinfo2` sees nothing there.
// The runtime exports this query; GCC ships no header that declares it.
extern "C" std::size_t __sanitizer_get_current_allocated_bytes();
#endif

namespace odcm::shmem {
namespace {

using testutil::JobEnv;
using testutil::small_job;
using testutil::with_init;

/// Upper bound on the bytes one touched peer may add to a PE's footprint:
/// its `Peer` slot plus its share of the sparse index.
constexpr std::size_t kPerTouchedPeer = 512;
/// The sparse index's minimum table.
constexpr std::size_t kFixed = 64;

struct Footprint {
  std::size_t bytes = 0;
  std::size_t touched = 0;
};

std::vector<Footprint> hello_footprints(std::uint32_t pes) {
  ShmemJobConfig config = small_job(pes, 16);
  config.shmem.heap_bytes = 4096;
  JobEnv env(config);
  env.run(with_init([](ShmemPe&) -> sim::Task<> { co_return; }));
  std::vector<Footprint> out;
  for (RankId r = 0; r < pes; ++r) {
    ShmemPe& pe = env.job.pe(r);
    out.push_back({pe.memory_footprint() + pe.conduit().memory_footprint(),
                   pe.conduit().touched_peer_count()});
  }
  return out;
}

TEST(Footprint, OnDemandHelloGrowsWithTouchedPeersNotJobSize) {
  const std::vector<Footprint> small = hello_footprints(256);
  const std::vector<Footprint> large = hello_footprints(1024);
  for (RankId r = 0; r < large.size(); ++r) {
    // N learned-segment bits plus a constant per touched peer (the
    // iallgather collapses the learned-endpoint set to a flag).
    EXPECT_LE(large[r].bytes,
              1024 / 8 + kFixed + kPerTouchedPeer * large[r].touched)
        << "rank " << r;
    EXPECT_LT(large[r].touched, 16u) << "rank " << r;
  }
  for (RankId r = 0; r < small.size(); ++r) {
    EXPECT_LE(large[r].bytes,
              small[r].bytes + (1024 - 256) / 8 +
                  kPerTouchedPeer * large[r].touched)
        << "rank " << r;
  }
}

TEST(Footprint, LearnedSegmentsAreExactlyTheConnectedPeers) {
  constexpr std::uint32_t kPes = 16;
  constexpr std::uint32_t kPpn = 4;
  for (auto transport : {IntranodeTransport::kRc, IntranodeTransport::kShm}) {
    for (auto registration :
         {RegistrationMode::kEager, RegistrationMode::kOnDemand}) {
      ShmemJobConfig config = small_job(kPes, kPpn);
      config.job.conduit.intranode_transport = transport;
      config.shmem.registration = registration;
      config.shmem.reg_chunk_bytes = 4096;
      JobEnv env(config);
      env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
        const SymAddr slot = pe.heap().allocate(8);
        co_await pe.put_value<std::uint64_t>((pe.rank() * 5 + 3) % kPes, slot,
                                             pe.rank());
        co_await pe.put_value<std::uint64_t>((pe.rank() + 7) % kPes, slot,
                                             pe.rank());
      }));
      for (RankId self = 0; self < kPes; ++self) {
        ShmemPe& pe = env.job.pe(self);
        for (RankId peer = 0; peer < kPes; ++peer) {
          const bool same_node = peer / kPpn == self / kPpn;
          const bool expected =
              peer == self ||
              pe.conduit().peer_phase(peer) == core::PeerPhase::kConnected ||
              (transport == IntranodeTransport::kShm && same_node);
          EXPECT_EQ(pe.knows_segment(peer), expected)
              << "transport " << static_cast<int>(transport)
              << " registration " << static_cast<int>(registration)
              << " rank " << self << " peer " << peer;
        }
      }
    }
  }
}

TEST(Footprint, StaticDesignLearnsEverySegment) {
  // Below the bulk threshold every triplet arrives over an AM and sets its
  // bit; above it the bulk path learns all of them at once and keeps no
  // bits.
  for (std::uint32_t bulk_threshold : {512u, 4u}) {
    ShmemJobConfig config = small_job(8, 2, core::current_design());
    config.job.conduit.bulk_connect_threshold = bulk_threshold;
    JobEnv env(config);
    env.run(with_init([](ShmemPe&) -> sim::Task<> { co_return; }));
    for (RankId self = 0; self < 8; ++self) {
      ShmemPe& pe = env.job.pe(self);
      for (RankId peer = 0; peer < 8; ++peer) {
        EXPECT_TRUE(pe.knows_segment(peer));
      }
      EXPECT_EQ(pe.memory_footprint(), bulk_threshold < 8 ? 0u : 8u);
      EXPECT_EQ(env.job.segment(self).size, config.shmem.heap_bytes);
    }
  }
}

/// Bytes the allocator holds for live allocations.
std::size_t live_heap_bytes() {
#if defined(ODCM_SIM_ASAN)
  return __sanitizer_get_current_allocated_bytes();
#else
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
#endif
}

/// Live heap a current-design hello adds, measured before teardown.
std::size_t current_design_hello_heap(std::uint32_t pes) {
  const std::size_t before = live_heap_bytes();
  ShmemJobConfig config = small_job(pes, 16, core::current_design());
  config.shmem.heap_bytes = 32 * 1024;
  JobEnv env(config);
  env.run(with_init([](ShmemPe&) -> sim::Task<> { co_return; }));
  return live_heap_bytes() - before;
}

TEST(Footprint, CurrentDesignHeapGrowsLinearlyWithJobSize) {
  // Above the bulk threshold each rank's static connect publishes an
  // N-entry QP table; the job pays for all N tables but keeps none, so
  // doubling N at most doubles the live heap plus a margin.
  const std::size_t small = current_design_hello_heap(4096);
  const std::size_t large = current_design_hello_heap(8192);
  EXPECT_LE(static_cast<double>(large), 2.2 * static_cast<double>(small))
      << small << " B at 4096 PEs, " << large << " B at 8192 PEs";
}

}  // namespace
}  // namespace odcm::shmem
