// google-benchmark microbenchmarks of the simulator substrate itself:
// real-time (host) cost of engine events, coroutine tasks, synchronization
// primitives, and end-to-end simulated operations. These bound how large a
// simulated job the harness can afford.
#include <benchmark/benchmark.h>

#include "core/conduit.hpp"
#include "fabric/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"

using namespace odcm;

namespace {

void BM_EngineEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 1000; ++i) {
      engine.schedule_at(static_cast<sim::Time>(i), [] {});
    }
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineEventDispatch);

void BM_SameTimeCascade(benchmark::State& state) {
  // A zero-delay chain (the shape of gate opens, task spawns and AM
  // hand-offs) over a background queue of future events: each link is
  // scheduled at the current time while 1,024 keys wait in the heap.
  constexpr int kBackground = 1024;
  constexpr int kChain = 10000;
  struct Chain {
    sim::Engine& engine;
    int left;
    void step() {
      if (--left > 0) engine.schedule_at(engine.now(), [this] { step(); });
    }
  };
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < kBackground; ++i) {
      engine.schedule_at(sim::sec + static_cast<sim::Time>(i), [] {});
    }
    Chain chain{engine, kChain};
    engine.schedule_at(0, [&chain] { chain.step(); });
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * kChain);
}
BENCHMARK(BM_SameTimeCascade);

void BM_StatSetAdd(benchmark::State& state) {
  // The per-operation counter bumps of the message path, three of them
  // with names longer than a short-string buffer.
  sim::StatSet stats;
  for (auto _ : state) {
    stats.add("am_sent");
    stats.add("am_received");
    stats.add("connections_established");
    stats.add("bulk_fragments_delivered");
    stats.add("qp_created_rc");
    stats.add("mpi_send");
    stats.add_time("rma_rc_time", 5);
    stats.add_time("credit_stall_time", 3);
  }
  benchmark::DoNotOptimize(stats.counter("am_sent"));
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_StatSetAdd);

void BM_CoroutineSpawnAndDelay(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 100; ++i) {
      engine.spawn([](sim::Engine& eng) -> sim::Task<> {
        for (int k = 0; k < 10; ++k) {
          co_await eng.delay(5);
        }
      }(engine));
    }
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoroutineSpawnAndDelay);

// Four-deep co_await chain per operation, shaped like the AM send path
// (op -> am_send -> connected_qp -> ensure_connected): measures coroutine
// frame allocation and symmetric-transfer cost per layer.
sim::Task<int> chain_ensure_connected(sim::Engine& engine) {
  co_await engine.delay(1);
  co_return 1;
}
sim::Task<int> chain_connected_qp(sim::Engine& engine) {
  co_return co_await chain_ensure_connected(engine) + 1;
}
sim::Task<int> chain_am_send(sim::Engine& engine) {
  co_return co_await chain_connected_qp(engine) + 1;
}
sim::Task<int> chain_op(sim::Engine& engine) {
  co_return co_await chain_am_send(engine) + 1;
}

void BM_TaskChain(benchmark::State& state) {
  constexpr int kOps = 1000;
  for (auto _ : state) {
    sim::Engine engine;
    engine.spawn([](sim::Engine& eng) -> sim::Task<> {
      int sum = 0;
      for (int i = 0; i < kOps; ++i) sum += co_await chain_op(eng);
      benchmark::DoNotOptimize(sum);
    }(engine));
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * kOps);
}
BENCHMARK(BM_TaskChain);

void BM_GateWait(benchmark::State& state) {
  // One completion gate per operation, opened by a later event: the shape
  // of every simulated verb's completion (QueuePair ops).
  constexpr int kOps = 1000;
  for (auto _ : state) {
    sim::Engine engine;
    engine.spawn([](sim::Engine& eng) -> sim::Task<> {
      for (int i = 0; i < kOps; ++i) {
        sim::Gate done(eng);
        eng.schedule_after(1, [&done] { done.open(); });
        co_await done.wait();
      }
    }(engine));
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * kOps);
}
BENCHMARK(BM_GateWait);

void BM_MailboxPingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    sim::Mailbox<int> a(engine);
    sim::Mailbox<int> b(engine);
    engine.spawn([](sim::Mailbox<int>& rx, sim::Mailbox<int>& tx)
                     -> sim::Task<> {
      for (int i = 0; i < 500; ++i) {
        tx.push(i);
        (void)co_await rx.pop();
      }
    }(a, b));
    engine.spawn([](sim::Mailbox<int>& rx, sim::Mailbox<int>& tx)
                     -> sim::Task<> {
      for (int i = 0; i < 500; ++i) {
        int v = co_await rx.pop();
        tx.push(v);
      }
    }(b, a));
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MailboxPingPong);

void BM_SimulatedRdmaWrite(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    fabric::FabricConfig config;
    config.nodes = 2;
    fabric::Fabric fabric(engine, config);
    fabric.hca(0).attach_pe(0);
    fabric.hca(1).attach_pe(1);
    fabric::AddressSpace space(1, fabric::make_va_base(1), size + 64);
    engine.spawn([](fabric::Fabric& fab, fabric::AddressSpace& mem,
                    std::size_t bytes) -> sim::Task<> {
      fabric::QueuePair* a = co_await fab.hca(0).create_qp(
          fabric::QpType::kRc, 0);
      fabric::QueuePair* b = co_await fab.hca(1).create_qp(
          fabric::QpType::kRc, 1);
      co_await a->transition(fabric::QpState::kInit);
      co_await b->transition(fabric::QpState::kInit);
      a->set_remote(b->addr());
      b->set_remote(a->addr());
      co_await a->transition(fabric::QpState::kRtr);
      co_await a->transition(fabric::QpState::kRts);
      co_await b->transition(fabric::QpState::kRtr);
      co_await b->transition(fabric::QpState::kRts);
      fabric::MemoryRegion mr =
          co_await fab.hca(1).register_memory(mem, mem.base(), mem.size());
      for (int i = 0; i < 100; ++i) {
        (void)co_await a->rdma_write(mr.addr, mr.rkey,
                                     std::vector<std::byte>(bytes));
      }
    }(fabric, space, size));
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 100);
  state.SetBytesProcessed(state.iterations() * 100 *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_SimulatedRdmaWrite)->Arg(8)->Arg(4096)->Arg(65536);

void BM_OnDemandHandshake(benchmark::State& state) {
  // Host cost of one full simulated connection establishment (Fig 4).
  for (auto _ : state) {
    sim::Engine engine;
    core::JobConfig config;
    config.ranks = 2;
    config.ranks_per_node = 1;
    config.conduit = core::proposed_design();
    core::ConduitJob job(engine, config);
    job.spawn_all([](core::Conduit& c) -> sim::Task<> {
      co_await c.init();
      if (c.rank() == 0) {
        (void)co_await c.connected_qp(1);
      }
      co_await c.barrier_global();
    });
    engine.run();
  }
}
BENCHMARK(BM_OnDemandHandshake);

void BM_ConnectUnderCapPressure(benchmark::State& state) {
  // Host cost of a rank-0 sweep over N-1 peers with a small connection
  // cap: nearly every establishment evicts an older connection, so this
  // exercises victim selection, drain/reconnect, and retired-QP
  // reclamation. Host time should scale ~linearly in N; the pre-LRU
  // implementation was quadratic (a full peer scan per eviction).
  const auto ranks = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    core::JobConfig config;
    config.ranks = ranks;
    config.ranks_per_node = ranks;
    config.conduit = core::proposed_design();
    config.conduit.max_active_connections = 64;
    core::ConduitJob job(engine, config);
    job.spawn_all([](core::Conduit& c) -> sim::Task<> {
      c.register_handler(20,
                         [](core::RankId, std::vector<std::byte>)
                             -> sim::Task<> { co_return; });
      co_await c.init();
      if (c.rank() == 0) {
        for (core::RankId peer = 1; peer < c.size(); ++peer) {
          co_await c.am_send(peer, 20, std::vector<std::byte>(8));
        }
      }
    });
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * (ranks - 1));
}
BENCHMARK(BM_ConnectUnderCapPressure)->Arg(256)->Arg(2048);

void BM_AmDispatch(benchmark::State& state) {
  // Host cost of the AM fast path (send + dispatch) over one established
  // connection: flat handler/peer lookup and buffer-consuming decode.
  constexpr int kMessages = 512;
  for (auto _ : state) {
    sim::Engine engine;
    core::JobConfig config;
    config.ranks = 2;
    config.ranks_per_node = 1;
    config.conduit = core::proposed_design();
    core::ConduitJob job(engine, config);
    job.spawn_all([](core::Conduit& c) -> sim::Task<> {
      c.register_handler(20,
                         [](core::RankId, std::vector<std::byte>)
                             -> sim::Task<> { co_return; });
      co_await c.init();
      if (c.rank() == 0) {
        for (int i = 0; i < kMessages; ++i) {
          co_await c.am_send(1, 20, std::vector<std::byte>(32));
        }
      }
      co_await c.barrier_global();
    });
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * kMessages);
}
BENCHMARK(BM_AmDispatch);

}  // namespace

BENCHMARK_MAIN();
