// Tests for OpenSHMEM collectives: barrier_all, broadcast, fcollect, reduce.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "shmem/job.hpp"
#include "test_util.hpp"

namespace odcm::shmem {
namespace {

using testutil::JobEnv;
using testutil::small_job;
using testutil::with_init;

TEST(BarrierAll, SynchronizesAllPes) {
  JobEnv env(small_job(8, 4));
  std::vector<sim::Time> passed(8, 0);
  env.run(with_init([&passed](ShmemPe& pe) -> sim::Task<> {
    if (pe.rank() == 3) {
      co_await pe.engine().delay(2 * sim::msec);
    }
    co_await pe.barrier_all();
    passed[pe.rank()] = pe.engine().now();
  }));
  for (RankId r = 0; r < 8; ++r) {
    EXPECT_GE(passed[r], 2 * sim::msec);
  }
}

TEST(BarrierAll, CompletesOutstandingNbiPuts) {
  JobEnv env(small_job(2, 1));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr slot = pe.heap().allocate(8);
    if (pe.rank() == 0) {
      std::uint64_t value = 31337;
      std::vector<std::byte> data(8);
      std::memcpy(data.data(), &value, 8);
      pe.put_nbi(1, slot, data);
      // barrier_all implies quiet: the put must land before anyone passes.
    }
    co_await pe.barrier_all();
    if (pe.rank() == 1) {
      EXPECT_EQ(pe.local_read<std::uint64_t>(slot), 31337u);
    }
  }));
}

TEST(Broadcast, FromRootZero) {
  JobEnv env(small_job(8, 4));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr buf = pe.heap().allocate(32);
    if (pe.rank() == 0) {
      for (int i = 0; i < 4; ++i) {
        pe.local_write<std::uint64_t>(buf + i * 8, 1000 + i);
      }
    }
    co_await pe.broadcast(0, buf, 32);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(pe.local_read<std::uint64_t>(buf + i * 8), 1000u + i);
    }
  }));
}

TEST(Broadcast, FromNonZeroRoot) {
  JobEnv env(small_job(6, 3));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr buf = pe.heap().allocate(8);
    pe.local_write<std::uint64_t>(buf, pe.rank());
    co_await pe.broadcast(4, buf, 8);
    EXPECT_EQ(pe.local_read<std::uint64_t>(buf), 4u);
  }));
}

TEST(Broadcast, BackToBackRoundsDoNotMix) {
  JobEnv env(small_job(4, 2));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr buf = pe.heap().allocate(8);
    for (std::uint64_t round = 0; round < 5; ++round) {
      if (pe.rank() == 0) {
        pe.local_write<std::uint64_t>(buf, round * 11);
      }
      co_await pe.broadcast(0, buf, 8);
      EXPECT_EQ(pe.local_read<std::uint64_t>(buf), round * 11);
    }
  }));
}

TEST(Fcollect, GathersAllBlocksEverywhere) {
  constexpr std::uint32_t kRanks = 8;
  JobEnv env(small_job(kRanks, 4));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr src = pe.heap().allocate(16);
    SymAddr dest = pe.heap().allocate(16 * kRanks);
    pe.local_write<std::uint64_t>(src, 100 + pe.rank());
    pe.local_write<std::uint64_t>(src + 8, 200 + pe.rank());
    co_await pe.fcollect(dest, src, 16);
    for (RankId r = 0; r < kRanks; ++r) {
      EXPECT_EQ(pe.local_read<std::uint64_t>(dest + r * 16), 100u + r);
      EXPECT_EQ(pe.local_read<std::uint64_t>(dest + r * 16 + 8), 200u + r);
    }
  }));
}

TEST(Fcollect, SinglePeTrivial) {
  JobEnv env(small_job(1, 1));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr src = pe.heap().allocate(8);
    SymAddr dest = pe.heap().allocate(8);
    pe.local_write<std::uint64_t>(src, 5);
    co_await pe.fcollect(dest, src, 8);
    EXPECT_EQ(pe.local_read<std::uint64_t>(dest), 5u);
  }));
}

TEST(Reduce, SumInt64) {
  constexpr std::uint32_t kRanks = 6;
  JobEnv env(small_job(kRanks, 3));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr src = pe.heap().allocate(24);
    SymAddr dest = pe.heap().allocate(24);
    for (int e = 0; e < 3; ++e) {
      pe.local_write<std::int64_t>(src + e * 8, pe.rank() + e);
    }
    co_await pe.reduce<std::int64_t>(dest, src, 3, ReduceOp::kSum);
    // sum over ranks of (rank + e) = 15 + 6e
    for (int e = 0; e < 3; ++e) {
      EXPECT_EQ(pe.local_read<std::int64_t>(dest + e * 8), 15 + 6 * e);
    }
  }));
}

TEST(Reduce, MinMaxInt64) {
  JobEnv env(small_job(5, 5));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr src = pe.heap().allocate(8);
    SymAddr dmin = pe.heap().allocate(8);
    SymAddr dmax = pe.heap().allocate(8);
    pe.local_write<std::int64_t>(src, 10 - static_cast<std::int64_t>(pe.rank()) * 3);
    co_await pe.reduce<std::int64_t>(dmin, src, 1, ReduceOp::kMin);
    co_await pe.reduce<std::int64_t>(dmax, src, 1, ReduceOp::kMax);
    EXPECT_EQ(pe.local_read<std::int64_t>(dmin), -2);  // rank 4: 10-12
    EXPECT_EQ(pe.local_read<std::int64_t>(dmax), 10);  // rank 0
  }));
}

TEST(Reduce, SumDouble) {
  JobEnv env(small_job(4, 2));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr src = pe.heap().allocate(8);
    SymAddr dest = pe.heap().allocate(8);
    pe.local_write<double>(src, 0.5 * (pe.rank() + 1));
    co_await pe.reduce<double>(dest, src, 1, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(pe.local_read<double>(dest), 0.5 + 1.0 + 1.5 + 2.0);
  }));
}

TEST(Reduce, ProdInt64) {
  JobEnv env(small_job(3, 3));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr src = pe.heap().allocate(8);
    SymAddr dest = pe.heap().allocate(8);
    pe.local_write<std::int64_t>(src, pe.rank() + 2);
    co_await pe.reduce<std::int64_t>(dest, src, 1, ReduceOp::kProd);
    EXPECT_EQ(pe.local_read<std::int64_t>(dest), 2 * 3 * 4);
  }));
}

TEST(Reduce, RepeatedReductionsIndependent) {
  JobEnv env(small_job(4, 2));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr src = pe.heap().allocate(8);
    SymAddr dest = pe.heap().allocate(8);
    for (std::int64_t round = 1; round <= 4; ++round) {
      pe.local_write<std::int64_t>(src, round);
      co_await pe.reduce<std::int64_t>(dest, src, 1, ReduceOp::kSum);
      EXPECT_EQ(pe.local_read<std::int64_t>(dest), 4 * round);
    }
  }));
}

TEST(Collectives, WorkIdenticallyUnderStaticDesign) {
  // Paper Fig 7: collective latency is the same under both designs; here we
  // check correctness parity (timing parity is a bench).
  JobEnv env(small_job(8, 4, core::current_design()));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr src = pe.heap().allocate(8);
    SymAddr dest = pe.heap().allocate(8 * 8);
    SymAddr sum = pe.heap().allocate(8);
    pe.local_write<std::uint64_t>(src, pe.rank() * 7);
    co_await pe.fcollect(dest, src, 8);
    co_await pe.reduce<std::int64_t>(sum, src, 1, ReduceOp::kSum);
    for (RankId r = 0; r < 8; ++r) {
      EXPECT_EQ(pe.local_read<std::uint64_t>(dest + r * 8), r * 7u);
    }
    EXPECT_EQ(pe.local_read<std::int64_t>(sum), 7 * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7));
  }));
}

TEST(Reduce, ZeroCollectiveFanoutRejectedAtJobConstruction) {
  // A zero fanout used to kill the first tree collective with SIGFPE; it is
  // a config error, reported when the job is built and naming the field.
  ShmemJobConfig config = small_job(8, 4);
  config.shmem.collective_fanout = 0;
  sim::Engine engine;
  try {
    ShmemJob job(engine, config);
    FAIL() << "collective_fanout = 0 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("collective_fanout"),
              std::string::npos)
        << e.what();
  }
  // The default and the smallest valid fanout still reduce correctly.
  for (std::uint32_t fanout : {ShmemConfig{}.collective_fanout, 1u}) {
    config.shmem.collective_fanout = fanout;
    JobEnv env(config);
    env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
      SymAddr src = pe.heap().allocate(8, 8);
      SymAddr dest = pe.heap().allocate(8, 8);
      pe.local_write<std::int64_t>(src, pe.rank() + 1);
      co_await pe.reduce<std::int64_t>(dest, src, 1, ReduceOp::kSum);
      EXPECT_EQ(pe.local_read<std::int64_t>(dest), 36);
    }));
  }
}

// ---- wire lengths of every collective, pinned through virtual time ----

std::byte pattern(std::uint64_t rank, std::uint64_t i, std::uint64_t salt) {
  return static_cast<std::byte>((rank * 131 + i * 7 + salt * 29) & 0xff);
}

/// Runs collect (block lengths 0, 1, 13, 4096), then broadcast, fcollect,
/// alltoall and an int64 reduce (lengths 1, 13, 4096) on 6 PEs over 2
/// nodes, checking every result byte. Returns, per operation, the latest
/// virtual completion time over all PEs: every frame's length feeds the
/// wire and copy cost model, so a changed length moves these times.
std::vector<sim::Time> run_pinned_collectives(core::IntranodeTransport t) {
  constexpr std::uint32_t kRanks = 6;
  core::ConduitConfig conduit = core::proposed_design();
  conduit.intranode_transport = t;
  ShmemJobConfig config = small_job(kRanks, 3, conduit);
  config.shmem.heap_bytes = 1 << 20;
  JobEnv env(config);
  std::vector<sim::Time> done;
  std::uint64_t bad_bytes = 0;
  env.run(with_init([&done, &bad_bytes](ShmemPe& pe) -> sim::Task<> {
    const std::uint64_t me = pe.rank();
    std::size_t step = 0;
    auto finished = [&done, &pe, &step] {
      if (done.size() <= step) done.resize(step + 1, 0);
      done[step] = std::max(done[step], pe.engine().now());
      ++step;
    };
    auto fill = [&pe](SymAddr at, std::uint64_t rank, std::uint64_t first,
                      std::uint64_t len, std::uint64_t salt) {
      auto window = pe.local_window(at, len);
      for (std::uint64_t i = 0; i < len; ++i) {
        window[i] = pattern(rank, first + i, salt);
      }
    };
    auto check = [&pe, &bad_bytes](SymAddr at, std::uint64_t rank,
                                   std::uint64_t first, std::uint64_t len,
                                   std::uint64_t salt) {
      auto window = pe.local_window(at, len);
      for (std::uint64_t i = 0; i < len; ++i) {
        if (window[i] != pattern(rank, first + i, salt)) ++bad_bytes;
      }
    };
    for (std::uint64_t len : {0u, 1u, 13u, 4096u}) {
      const std::uint64_t room = std::max<std::uint64_t>(len * kRanks, 1);
      SymAddr src = pe.heap().allocate(room);
      SymAddr dest = pe.heap().allocate(room);
      fill(src, me, 0, len, 1);
      co_await pe.collect(dest, src, static_cast<std::uint32_t>(len));
      finished();
      for (std::uint64_t r = 0; r < kRanks; ++r) check(dest + r * len, r, 0, len, 1);
      if (len == 0) continue;

      const std::uint64_t root = 4;
      SymAddr buf = pe.heap().allocate(len);
      if (me == root) fill(buf, root, 0, len, 2);
      co_await pe.broadcast(static_cast<RankId>(root), buf,
                            static_cast<std::uint32_t>(len));
      finished();
      check(buf, root, 0, len, 2);

      src = pe.heap().allocate(len);
      dest = pe.heap().allocate(len * kRanks);
      fill(src, me, 0, len, 3);
      co_await pe.fcollect(dest, src, static_cast<std::uint32_t>(len));
      finished();
      for (std::uint64_t r = 0; r < kRanks; ++r) check(dest + r * len, r, 0, len, 3);

      src = pe.heap().allocate(len * kRanks);
      dest = pe.heap().allocate(len * kRanks);
      fill(src, me, 0, len * kRanks, 4);
      co_await pe.alltoall(dest, src, static_cast<std::uint32_t>(len));
      finished();
      for (std::uint64_t r = 0; r < kRanks; ++r) {
        check(dest + r * len, r, me * len, len, 4);
      }

      src = pe.heap().allocate(8 * len);
      dest = pe.heap().allocate(8 * len);
      for (std::uint64_t e = 0; e < len; ++e) {
        pe.local_write<std::int64_t>(src + 8 * e,
                                     static_cast<std::int64_t>(me * 1000 + e));
      }
      co_await pe.reduce<std::int64_t>(dest, src,
                                       static_cast<std::uint32_t>(len),
                                       ReduceOp::kSum);
      finished();
      for (std::uint64_t e = 0; e < len; ++e) {
        const auto want = static_cast<std::int64_t>(15 * 1000 + kRanks * e);
        if (pe.local_read<std::int64_t>(dest + 8 * e) != want) ++bad_bytes;
      }
    }
  }));
  EXPECT_EQ(bad_bytes, 0u);
  return done;
}

TEST(CollectiveWire, RcLengthsPinnedByVirtualTime) {
  // Captured before the zero-copy AM path landed; frames must keep their
  // lengths. Order: collect(0); then per length 1, 13, 4096: collect,
  // broadcast, fcollect, alltoall, reduce.
  const std::vector<sim::Time> expected = {
      2215500, 2232565, 3744950, 3753130, 4262476, 4268401,
      4283831, 4287097, 4295297, 4301935, 4307976, 4329781,
      4336620, 4351195, 4362678, 4410630};
  EXPECT_EQ(run_pinned_collectives(core::IntranodeTransport::kRc), expected);
}

TEST(CollectiveWire, ShmLengthsPinnedByVirtualTime) {
  // Captured like the RC pins above.
  const std::vector<sim::Time> expected = {
      2168018, 2185083, 3722850, 3731030, 4262678, 4267490,
      4282859, 4285441, 4293641, 4299305, 4304178, 4325922,
      4331639, 4346214, 4356285, 4398044};
  EXPECT_EQ(run_pinned_collectives(core::IntranodeTransport::kShm), expected);
}

}  // namespace
}  // namespace odcm::shmem
