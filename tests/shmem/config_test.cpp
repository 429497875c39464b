// ShmemJobConfig validation: every rejected knob throws std::invalid_argument
// naming the field when the job is built, before any simulated time passes.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "test_util.hpp"

namespace odcm::shmem {
namespace {

using testutil::JobEnv;
using testutil::small_job;
using testutil::with_init;

/// Builds a job from `config` and expects a throw naming `field`.
void expect_rejected(const ShmemJobConfig& config, const std::string& field) {
  sim::Engine engine;
  try {
    ShmemJob job(engine, config);
    FAIL() << field << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

/// Builds a job from `config` and runs a self put plus a put + wait_until
/// exchange on it.
void expect_runs(const ShmemJobConfig& config) {
  JobEnv env(config);
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr flag = pe.heap().allocate(8, 8);
    SymAddr self = pe.heap().allocate(64, 8);
    co_await pe.put_value<std::uint64_t>(pe.rank(), self, 3);
    EXPECT_EQ(pe.local_read<std::uint64_t>(self), 3u);
    co_await pe.barrier_all();
    const RankId next = (pe.rank() + 1) % pe.n_pes();
    co_await pe.put_value<std::uint64_t>(next, flag, 7);
    co_await pe.wait_until(flag, WaitCmp::kEq, 7);
    co_await pe.barrier_all();
  }));
}

ShmemJobConfig on_demand_reg() {
  ShmemJobConfig config = small_job(4, 2);
  config.shmem.registration = RegistrationMode::kOnDemand;
  config.shmem.reg_chunk_bytes = 4096;
  return config;
}

TEST(ShmemConfig, ZeroWaitPollIntervalRejected) {
  // wait_until would re-poll at the same virtual time forever.
  ShmemJobConfig config = small_job(4, 2);
  config.shmem.wait_poll_interval = 0;
  expect_rejected(config, "shmem.wait_poll_interval");
  config.shmem.wait_poll_interval = 1;
  expect_runs(config);
}

TEST(ShmemConfig, NonPositiveOrNonFiniteLocalBandwidthRejected) {
  ShmemJobConfig config = small_job(4, 2);
  for (double bad : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    config.shmem.local_bytes_per_ns = bad;
    expect_rejected(config, "shmem.local_bytes_per_ns");
  }
  config.shmem.local_bytes_per_ns = 0.5;
  expect_runs(config);
}

TEST(ShmemConfig, BadRegChunkBytesRejectedUnderOnDemandRegistration) {
  ShmemJobConfig config = on_demand_reg();
  for (std::uint64_t bad : {std::uint64_t{0}, std::uint64_t{4100}}) {
    config.shmem.reg_chunk_bytes = bad;
    expect_rejected(config, "shmem.reg_chunk_bytes");
  }
  config.shmem.reg_chunk_bytes = 8;
  expect_runs(config);
  // Eager registration never reads the chunk size, so it is not checked.
  config.shmem.registration = RegistrationMode::kEager;
  config.shmem.reg_chunk_bytes = 0;
  expect_runs(config);
}

TEST(ShmemConfig, PinnedCapBelowOneChunkRejectedUnderOnDemandRegistration) {
  ShmemJobConfig config = on_demand_reg();
  config.shmem.reg_pinned_max_bytes = 4095;
  expect_rejected(config, "shmem.reg_pinned_max_bytes");
  config.shmem.reg_pinned_max_bytes = 4096;  // exactly one chunk
  expect_runs(config);
  // A chunk larger than the heap needs only the heap to fit.
  config.shmem.reg_chunk_bytes = 2 * config.shmem.heap_bytes;
  config.shmem.reg_pinned_max_bytes = config.shmem.heap_bytes;
  expect_runs(config);
}

TEST(ShmemConfig, DefaultsAreAccepted) {
  expect_runs(small_job(4, 2));
  ShmemJobConfig config = small_job(4, 2);
  config.shmem = ShmemConfig{};
  config.shmem.heap_bytes = 1 << 16;
  config.shmem.shared_memory_base = 0;
  config.shmem.shared_memory_per_pe = 0;
  config.shmem.init_misc = 0;
  config.shmem.registration = RegistrationMode::kOnDemand;
  expect_runs(config);
}

}  // namespace
}  // namespace odcm::shmem
