// Tests for the PMI key-value store, fence semantics and the non-blocking
// PMIX extensions.
#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "pmi/pmi.hpp"
#include "sim/engine.hpp"

namespace odcm::pmi {
namespace {

struct Env {
  explicit Env(std::uint32_t ranks, std::uint32_t ppn = 2,
               PmiConfig base = {}) {
    base.ranks = ranks;
    base.ranks_per_node = ppn;
    manager = std::make_unique<JobManager>(engine, base);
  }

  sim::Engine engine;
  std::unique_ptr<JobManager> manager;
};

TEST(JobManager, NodeMapping) {
  Env env(8, 2);
  EXPECT_EQ(env.manager->nodes(), 4u);
  EXPECT_EQ(env.manager->node_of(0), 0u);
  EXPECT_EQ(env.manager->node_of(1), 0u);
  EXPECT_EQ(env.manager->node_of(2), 1u);
  EXPECT_EQ(env.manager->node_of(7), 3u);
  EXPECT_THROW((void)env.manager->node_of(8), std::out_of_range);
  EXPECT_THROW((void)env.manager->client(8), std::out_of_range);
}

TEST(JobManager, RejectsBadConfig) {
  sim::Engine engine;
  PmiConfig config;
  config.ranks = 0;
  EXPECT_THROW(JobManager(engine, config), std::invalid_argument);
  config.ranks = 4;
  config.ranks_per_node = 1;
  config.tree_fanout = 1;
  EXPECT_THROW(JobManager(engine, config), std::invalid_argument);
}

TEST(Kvs, GetBeforeFenceSeesNothing) {
  Env env(2);
  env.engine.spawn([](Env& e) -> sim::Task<> {
    co_await e.manager->client(0).put("k", "v");
    auto value = co_await e.manager->client(1).get("k");
    EXPECT_FALSE(value.has_value());
  }(env));
  env.engine.run();
}

TEST(Kvs, PutFenceGetRoundTrip) {
  Env env(4);
  for (RankId rank = 0; rank < 4; ++rank) {
    env.engine.spawn([](Env& e, RankId r) -> sim::Task<> {
      PmiClient& client = e.manager->client(r);
      co_await client.put("rank-" + std::to_string(r),
                          "value-" + std::to_string(r));
      co_await client.fence();
      // Every rank reads every other rank's entry.
      for (RankId peer = 0; peer < 4; ++peer) {
        auto value = co_await client.get("rank-" + std::to_string(peer));
        EXPECT_EQ(value.value_or("<missing>"),
                  "value-" + std::to_string(peer));
      }
    }(env, rank));
  }
  env.engine.run();
  EXPECT_EQ(env.manager->fences_completed(), 1u);
}

TEST(Kvs, FenceIsABarrier) {
  Env env(2);
  sim::Time rank0_done = 0;
  env.engine.spawn([](Env& e, sim::Time& done) -> sim::Task<> {
    co_await e.manager->client(0).fence();
    done = e.engine.now();
  }(env, rank0_done));
  // Rank 1 arrives only at t = 1 ms.
  env.engine.spawn([](Env& e) -> sim::Task<> {
    co_await e.engine.delay(1 * sim::msec);
    co_await e.manager->client(1).fence();
  }(env));
  env.engine.run();
  EXPECT_GE(rank0_done, 1 * sim::msec);
}

TEST(Kvs, SecondFenceEpochOverwrites) {
  Env env(1, 1);
  env.engine.spawn([](Env& e) -> sim::Task<> {
    PmiClient& client = e.manager->client(0);
    co_await client.put("k", "first");
    co_await client.fence();
    co_await client.put("k", "second");
    co_await client.fence();
    auto value = co_await client.get("k");
    EXPECT_EQ(value.value_or("<missing>"), "second");
  }(env));
  env.engine.run();
  EXPECT_EQ(env.manager->fences_completed(), 2u);
}

TEST(Kvs, GetsSerializeOnNodeDaemon) {
  // Two ranks on the same node issue a get at the same instant: the second
  // must finish later. Two ranks on different nodes finish simultaneously.
  Env same(2, 2);
  std::vector<sim::Time> done_same(2);
  same.engine.spawn([](Env& e, sim::Time& t) -> sim::Task<> {
    (void)co_await e.manager->client(0).get("x");
    t = e.engine.now();
  }(same, done_same[0]));
  same.engine.spawn([](Env& e, sim::Time& t) -> sim::Task<> {
    (void)co_await e.manager->client(1).get("x");
    t = e.engine.now();
  }(same, done_same[1]));
  same.engine.run();
  EXPECT_NE(done_same[0], done_same[1]);

  Env diff(2, 1);
  std::vector<sim::Time> done_diff(2);
  diff.engine.spawn([](Env& e, sim::Time& t) -> sim::Task<> {
    (void)co_await e.manager->client(0).get("x");
    t = e.engine.now();
  }(diff, done_diff[0]));
  diff.engine.spawn([](Env& e, sim::Time& t) -> sim::Task<> {
    (void)co_await e.manager->client(1).get("x");
    t = e.engine.now();
  }(diff, done_diff[1]));
  diff.engine.run();
  EXPECT_EQ(done_diff[0], done_diff[1]);
}

TEST(Iallgather, GathersAllValuesByRank) {
  Env env(6, 3);
  for (RankId rank = 0; rank < 6; ++rank) {
    env.engine.spawn([](Env& e, RankId r) -> sim::Task<> {
      PmiClient& client = e.manager->client(r);
      CollectiveTicket ticket =
          client.iallgather_start("ep:" + std::to_string(r));
      std::span<const std::string> values =
          co_await client.iallgather_wait(ticket);
      EXPECT_EQ(values.size(), 6u);
      for (RankId peer = 0; peer < values.size(); ++peer) {
        EXPECT_EQ(values[peer], "ep:" + std::to_string(peer));
      }
    }(env, rank));
  }
  env.engine.run();
}

TEST(Iallgather, StartReturnsImmediately) {
  Env env(2);
  sim::Time start_cost = sim::Time(0) - 1;
  env.engine.spawn([](Env& e, sim::Time& cost) -> sim::Task<> {
    sim::Time t0 = e.engine.now();
    (void)e.manager->client(0).iallgather_start("x");
    cost = e.engine.now() - t0;
    // Let rank 1 arrive so the job can drain.
    CollectiveTicket t1 = e.manager->client(1).iallgather_start("y");
    (void)co_await e.manager->client(1).iallgather_wait(t1);
    CollectiveTicket t0b = CollectiveTicket{0};
    (void)co_await e.manager->client(0).iallgather_wait(t0b);
  }(env, start_cost));
  env.engine.run();
  EXPECT_EQ(start_cost, 0u);
}

TEST(Iallgather, OverlapsWithComputation) {
  // A rank that computes while the allgather progresses should finish at
  // ~max(compute, allgather), not the sum.
  auto run = [](sim::Time compute) {
    Env env(16, 4);
    sim::Time finished = 0;
    for (RankId rank = 0; rank < 16; ++rank) {
      env.engine.spawn(
          [](Env& e, RankId r, sim::Time work, sim::Time& done)
              -> sim::Task<> {
            PmiClient& client = e.manager->client(r);
            CollectiveTicket ticket = client.iallgather_start("endpoint");
            co_await e.engine.delay(work);  // overlapped computation
            (void)co_await client.iallgather_wait(ticket);
            if (r == 0) done = e.engine.now();
          }(env, rank, compute, finished));
    }
    env.engine.run();
    return finished;
  };
  sim::Time no_work = run(0);
  sim::Time with_work = run(10 * sim::msec);
  // 10 ms of overlapped work must hide the whole exchange: completion is
  // work + delivery, far below work + full exchange.
  EXPECT_GE(with_work, 10 * sim::msec);
  EXPECT_LT(with_work, 10 * sim::msec + no_work);
}

TEST(Iallgather, CheaperThanPutFenceGetStorm) {
  // The paper's motivation: Iallgather beats Put-Fence-Get when every rank
  // needs every other rank's entry.
  constexpr std::uint32_t kRanks = 64;
  auto fence_path = [] {
    Env env(kRanks, 8);
    for (RankId rank = 0; rank < kRanks; ++rank) {
      env.engine.spawn([](Env& e, RankId r) -> sim::Task<> {
        PmiClient& client = e.manager->client(r);
        co_await client.put("r" + std::to_string(r), std::string(16, 'x'));
        co_await client.fence();
        for (RankId peer = 0; peer < kRanks; ++peer) {
          (void)co_await client.get("r" + std::to_string(peer));
        }
      }(env, rank));
    }
    env.engine.run();
    return env.engine.now();
  };
  auto allgather_path = [] {
    Env env(kRanks, 8);
    for (RankId rank = 0; rank < kRanks; ++rank) {
      env.engine.spawn([](Env& e, RankId r) -> sim::Task<> {
        PmiClient& client = e.manager->client(r);
        CollectiveTicket ticket =
            client.iallgather_start(std::string(16, 'x'));
        (void)co_await client.iallgather_wait(ticket);
      }(env, rank));
    }
    env.engine.run();
    return env.engine.now();
  };
  EXPECT_LT(allgather_path(), fence_path());
}

TEST(Iallgather, MultipleRoundsKeepValuesSeparate) {
  Env env(2, 1);
  for (RankId rank = 0; rank < 2; ++rank) {
    env.engine.spawn([](Env& e, RankId r) -> sim::Task<> {
      PmiClient& client = e.manager->client(r);
      CollectiveTicket first =
          client.iallgather_start("a" + std::to_string(r));
      CollectiveTicket second =
          client.iallgather_start("b" + std::to_string(r));
      auto second_values = co_await client.iallgather_wait(second);
      auto first_values = co_await client.iallgather_wait(first);
      EXPECT_EQ(std::vector<std::string>(first_values.begin(),
                                         first_values.end()),
                (std::vector<std::string>{"a0", "a1"}));
      EXPECT_EQ(std::vector<std::string>(second_values.begin(),
                                         second_values.end()),
                (std::vector<std::string>{"b0", "b1"}));
    }(env, rank));
  }
  env.engine.run();
}

TEST(Costs, FenceCostGrowsWithPayload) {
  auto timed_fence = [](std::size_t value_bytes) {
    Env env(32, 8);
    for (RankId rank = 0; rank < 32; ++rank) {
      env.engine.spawn([](Env& e, RankId r, std::size_t n) -> sim::Task<> {
        PmiClient& client = e.manager->client(r);
        co_await client.put("k" + std::to_string(r), std::string(n, 'v'));
        co_await client.fence();
      }(env, rank, value_bytes));
    }
    env.engine.run();
    return env.engine.now();
  };
  EXPECT_LT(timed_fence(16), timed_fence(64 * 1024));
}

TEST(Costs, OobBytesTracked) {
  Env env(2, 1);
  env.engine.spawn([](Env& e) -> sim::Task<> {
    co_await e.manager->client(0).put("key", "0123456789");
    co_await e.manager->client(0).fence();
  }(env));
  env.engine.spawn([](Env& e) -> sim::Task<> {
    co_await e.manager->client(1).fence();
  }(env));
  env.engine.run();
  EXPECT_GT(env.manager->oob_bytes_moved(), 0u);
}

/// What one 8-rank exchange of `value_bytes`-byte values costs, and how
/// many value bytes came back out of the store.
struct Exchange {
  std::vector<sim::Time> staged;  ///< per rank: put done / iallgather started
  std::vector<sim::Time> done;    ///< per rank: fence / iallgather wait done
  std::int64_t put_bytes = 0;
  std::uint64_t oob_bytes = 0;
  std::uint64_t stored_bytes = 0;
};

Exchange exchange(bool blocking, bool charge_only, std::size_t value_bytes) {
  constexpr std::uint32_t kRanks = 8;
  Env env(kRanks, 2);
  Exchange out;
  out.staged.resize(kRanks);
  out.done.resize(kRanks);
  for (RankId rank = 0; rank < kRanks; ++rank) {
    env.engine.spawn([](Env& e, Exchange& x, RankId r, bool blocking,
                        bool charge_only, std::size_t n) -> sim::Task<> {
      PmiClient& client = e.manager->client(r);
      if (blocking) {
        std::string key = "table:" + std::to_string(r);
        if (charge_only) {
          co_await client.charge_put(key, n);
        } else {
          co_await client.put(key, std::string(n, 'v'));
        }
        x.staged[r] = e.engine.now();
        co_await client.fence();
        x.done[r] = e.engine.now();
        std::optional<std::string> value = co_await client.get(key);
        EXPECT_TRUE(value.has_value());
        if (value) x.stored_bytes += value->size();
      } else {
        CollectiveTicket ticket =
            charge_only ? client.iallgather_start(std::uint64_t{n})
                        : client.iallgather_start(std::string(n, 'v'));
        x.staged[r] = e.engine.now();
        std::span<const std::string> values =
            co_await client.iallgather_wait(ticket);
        x.done[r] = e.engine.now();
        if (r == 0) {
          for (const std::string& value : values) {
            x.stored_bytes += value.size();
          }
        }
      }
    }(env, out, rank, blocking, charge_only, value_bytes));
  }
  env.engine.run();
  out.put_bytes = env.manager->stats().counter("pmi/put_bytes");
  out.oob_bytes = env.manager->oob_bytes_moved();
  return out;
}

TEST(ChargeOnly, CostsWhatTheValueWouldButStoresNoBytes) {
  constexpr std::size_t kBytes = 4098;
  for (bool blocking : {true, false}) {
    const Exchange full = exchange(blocking, false, kBytes);
    const Exchange charged = exchange(blocking, true, kBytes);
    EXPECT_EQ(charged.staged, full.staged) << "blocking " << blocking;
    EXPECT_EQ(charged.done, full.done) << "blocking " << blocking;
    EXPECT_EQ(charged.put_bytes, full.put_bytes) << "blocking " << blocking;
    EXPECT_EQ(charged.oob_bytes, full.oob_bytes) << "blocking " << blocking;
    EXPECT_GT(full.oob_bytes, 0u);
    EXPECT_EQ(full.stored_bytes, 8 * kBytes) << "blocking " << blocking;
    EXPECT_EQ(charged.stored_bytes, 0u) << "blocking " << blocking;
  }
  EXPECT_EQ(exchange(true, true, kBytes).put_bytes,
            8 * static_cast<std::int64_t>(kBytes + 7));
}

TEST(JobManager, CountsCallsWithNoTelemetryAttached) {
  Env env(2);
  env.engine.spawn([](Env& e) -> sim::Task<> {
    co_await e.manager->client(0).put("k", "value");
    co_await e.manager->client(0).fence();
    (void)co_await e.manager->client(0).get("k");
    (void)co_await e.manager->client(0).get("missing");
  }(env));
  env.engine.spawn([](Env& e) -> sim::Task<> {
    co_await e.manager->client(1).fence();
  }(env));
  env.engine.run();
  const sim::StatSet& stats = env.manager->stats();
  EXPECT_EQ(stats.counter("pmi/puts"), 1);
  EXPECT_EQ(stats.counter("pmi/put_bytes"), 6);  // "k" + "value"
  EXPECT_EQ(stats.counter("pmi/gets"), 2);
  EXPECT_EQ(stats.counter("pmi/fences_started"), 2);
  EXPECT_EQ(static_cast<std::uint64_t>(stats.counter("pmi/oob_bytes")),
            env.manager->oob_bytes_moved());
  EXPECT_GT(env.manager->oob_bytes_moved(), 0u);
}

TEST(Determinism, IdenticalRunsIdenticalTimes) {
  auto run_once = [] {
    Env env(16, 4);
    for (RankId rank = 0; rank < 16; ++rank) {
      env.engine.spawn([](Env& e, RankId r) -> sim::Task<> {
        PmiClient& client = e.manager->client(r);
        co_await client.put("k" + std::to_string(r), "v");
        co_await client.fence();
        (void)co_await client.get("k" + std::to_string((r + 1) % 16));
      }(env, rank));
    }
    env.engine.run();
    return env.engine.now();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace odcm::pmi
