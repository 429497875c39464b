// Tests for data movement: RC send, RDMA read/write, atomics, and the
// protection behaviour on bad keys.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "fabric/fabric.hpp"
#include "test_util.hpp"

namespace odcm::fabric {
namespace {

using testutil::Env;

struct RdmaEnv : Env {
  RdmaEnv() : space(1, make_va_base(1), 1 << 16) {
    engine.spawn([](RdmaEnv& e) -> sim::Task<> {
      co_await testutil::connect_rc_pair(e.fabric, e.qp_a, e.qp_b);
      e.mr = co_await e.fabric.hca(1).register_memory(e.space, e.space.base(),
                                                      e.space.size());
    }(*this));
    engine.run();
  }

  AddressSpace space;  // rank 1's memory on node 1
  QueuePair* qp_a = nullptr;
  QueuePair* qp_b = nullptr;
  MemoryRegion mr{};
};

TEST(RcSend, DeliversToSharedReceiveQueue) {
  RdmaEnv env;
  bool checked = false;
  env.engine.spawn([](RdmaEnv& e, bool& done) -> sim::Task<> {
    Completion wc = co_await e.qp_a->send(testutil::bytes_of("hello ib"));
    EXPECT_TRUE(wc.ok());
    EXPECT_EQ(wc.byte_len, 8u);
    RcMessage msg = co_await e.fabric.hca(1).srq(1).pop();
    EXPECT_EQ(msg.src_qpn, e.qp_a->qpn());
    EXPECT_EQ(msg.src_lid, e.qp_a->lid());
    EXPECT_EQ(msg.dst_qpn, e.qp_b->qpn());
    EXPECT_EQ(msg.payload, testutil::bytes_of("hello ib"));
    done = true;
  }(env, checked));
  env.engine.run();
  EXPECT_TRUE(checked);
}

TEST(RcSend, PreservesOrderPerQp) {
  RdmaEnv env;
  env.engine.spawn([](RdmaEnv& e) -> sim::Task<> {
    // Post a large message then a small one; in-order RC delivery means the
    // small one must not overtake the large one even though its wire time
    // is far shorter.
    std::vector<std::byte> large(32 * 1024, std::byte{1});
    std::vector<std::byte> small(8, std::byte{2});
    sim::spawn_discard(e.engine, e.qp_a->send(std::move(large)));
    sim::spawn_discard(e.engine, e.qp_a->send(std::move(small)));
    RcMessage first = co_await e.fabric.hca(1).srq(1).pop();
    RcMessage second = co_await e.fabric.hca(1).srq(1).pop();
    EXPECT_EQ(first.payload.size(), 32u * 1024);
    EXPECT_EQ(second.payload.size(), 8u);
  }(env));
  env.engine.run();
}

TEST(RdmaWrite, WritesRemoteMemory) {
  RdmaEnv env;
  env.engine.spawn([](RdmaEnv& e) -> sim::Task<> {
    auto data = testutil::bytes_of("rdma payload");
    Completion wc =
        co_await e.qp_a->rdma_write(e.mr.addr + 100, e.mr.rkey, data);
    EXPECT_TRUE(wc.ok());
    auto window = e.space.window(e.space.base() + 100, data.size());
    EXPECT_TRUE(std::equal(data.begin(), data.end(), window.begin()));
  }(env));
  env.engine.run();
}

TEST(RdmaWrite, BadRkeyGivesErrorCompletionAndErrorState) {
  RdmaEnv env;
  env.engine.spawn([](RdmaEnv& e) -> sim::Task<> {
    Completion wc = co_await e.qp_a->rdma_write(e.mr.addr, e.mr.rkey + 7,
                                                testutil::bytes_of("x"));
    EXPECT_EQ(wc.status, WcStatus::kRemoteAccessError);
    EXPECT_EQ(e.qp_a->state(), QpState::kError);
  }(env));
  env.engine.run();
}

TEST(RdmaWrite, OutOfRangeAddressRejected) {
  RdmaEnv env;
  env.engine.spawn([](RdmaEnv& e) -> sim::Task<> {
    std::vector<std::byte> data(64, std::byte{9});
    Completion wc = co_await e.qp_a->rdma_write(
        e.mr.addr + e.mr.size - 8, e.mr.rkey, std::move(data));
    EXPECT_EQ(wc.status, WcStatus::kRemoteAccessError);
    // Target memory must be untouched.
    auto window = e.space.window(e.space.base() + e.space.size() - 8, 8);
    for (std::byte b : window) EXPECT_EQ(b, std::byte{0});
  }(env));
  env.engine.run();
}

TEST(RdmaRead, ReadsRemoteMemory) {
  RdmaEnv env;
  // Seed target memory directly.
  auto seed = testutil::bytes_of("remote contents");
  auto window = env.space.window(env.space.base() + 64, seed.size());
  std::copy(seed.begin(), seed.end(), window.begin());

  env.engine.spawn([](RdmaEnv& e, std::vector<std::byte>& expect)
                       -> sim::Task<> {
    std::vector<std::byte> dest(expect.size());
    Completion wc =
        co_await e.qp_a->rdma_read(e.mr.addr + 64, e.mr.rkey, dest);
    EXPECT_TRUE(wc.ok());
    EXPECT_EQ(dest, expect);
  }(env, seed));
  env.engine.run();
}

TEST(RdmaRead, BadKeyLeavesDestinationUntouched) {
  RdmaEnv env;
  env.engine.spawn([](RdmaEnv& e) -> sim::Task<> {
    std::vector<std::byte> dest(16, std::byte{0x5a});
    Completion wc = co_await e.qp_a->rdma_read(e.mr.addr, 999, dest);
    EXPECT_EQ(wc.status, WcStatus::kRemoteAccessError);
    for (std::byte b : dest) EXPECT_EQ(b, std::byte{0x5a});
  }(env));
  env.engine.run();
}

TEST(Atomics, FetchAddReturnsOldAndAdds) {
  RdmaEnv env;
  env.engine.spawn([](RdmaEnv& e) -> sim::Task<> {
    std::uint64_t init = 40;
    std::memcpy(e.space.window(e.space.base(), 8).data(), &init, 8);
    Completion wc = co_await e.qp_a->atomic(WcOpcode::kFetchAdd,
                                           e.mr.addr, e.mr.rkey, 2);
    EXPECT_TRUE(wc.ok());
    EXPECT_EQ(wc.atomic_old, 40u);
    std::uint64_t now = 0;
    std::memcpy(&now, e.space.window(e.space.base(), 8).data(), 8);
    EXPECT_EQ(now, 42u);
  }(env));
  env.engine.run();
}

TEST(Atomics, ConcurrentFetchAddsAreSerialized) {
  RdmaEnv env;
  // 16 concurrent fetch-adds of 1 from the same QP owner; each must see a
  // distinct old value and the final sum must be exact.
  env.engine.spawn([](RdmaEnv& e) -> sim::Task<> {
    std::vector<sim::Task<Completion>> ops;
    ops.reserve(16);
    for (int i = 0; i < 16; ++i) {
      ops.push_back(
          e.qp_a->atomic(WcOpcode::kFetchAdd, e.mr.addr, e.mr.rkey, 1));
    }
    std::vector<std::uint64_t> olds;
    for (auto& op : ops) {
      Completion wc = co_await std::move(op);
      EXPECT_TRUE(wc.ok());
      olds.push_back(wc.atomic_old);
    }
    std::sort(olds.begin(), olds.end());
    for (std::uint64_t i = 0; i < olds.size(); ++i) EXPECT_EQ(olds[i], i);
    std::uint64_t final_value = 0;
    std::memcpy(&final_value, e.space.window(e.space.base(), 8).data(), 8);
    EXPECT_EQ(final_value, 16u);
  }(env));
  env.engine.run();
}

TEST(Atomics, CompareSwapOnlySwapsOnMatch) {
  RdmaEnv env;
  env.engine.spawn([](RdmaEnv& e) -> sim::Task<> {
    std::uint64_t init = 7;
    std::memcpy(e.space.window(e.space.base(), 8).data(), &init, 8);
    // Mismatch: no swap.
    Completion miss = co_await e.qp_a->atomic(WcOpcode::kCompareSwap,
                                              e.mr.addr, e.mr.rkey,
                                              /*operand=*/100,
                                              /*compare=*/1);
    EXPECT_EQ(miss.atomic_old, 7u);
    std::uint64_t value = 0;
    std::memcpy(&value, e.space.window(e.space.base(), 8).data(), 8);
    EXPECT_EQ(value, 7u);
    // Match: swap.
    Completion hit = co_await e.qp_a->atomic(WcOpcode::kCompareSwap,
                                             e.mr.addr, e.mr.rkey,
                                             /*operand=*/100,
                                             /*compare=*/7);
    EXPECT_EQ(hit.atomic_old, 7u);
    std::memcpy(&value, e.space.window(e.space.base(), 8).data(), 8);
    EXPECT_EQ(value, 100u);
  }(env));
  env.engine.run();
}

TEST(Atomics, BadKeyYieldsError) {
  RdmaEnv env;
  env.engine.spawn([](RdmaEnv& e) -> sim::Task<> {
    Completion wc = co_await e.qp_a->atomic(WcOpcode::kFetchAdd,
                                           e.mr.addr, 12345, 1);
    EXPECT_EQ(wc.status, WcStatus::kRemoteAccessError);
  }(env));
  env.engine.run();
}

TEST(Atomics, SwapAndNonAtomicOpcodes) {
  RdmaEnv env;
  env.engine.spawn([](RdmaEnv& e) -> sim::Task<> {
    std::uint64_t init = 3;
    std::memcpy(e.space.window(e.space.base(), 8).data(), &init, 8);
    Completion wc =
        co_await e.qp_a->atomic(WcOpcode::kSwap, e.mr.addr, e.mr.rkey, 9);
    EXPECT_EQ(wc.opcode, WcOpcode::kSwap);
    EXPECT_EQ(wc.atomic_old, 3u);
    // Write, read and send are not atomics: rejected before anything posts.
    for (WcOpcode op :
         {WcOpcode::kRdmaWrite, WcOpcode::kRdmaRead, WcOpcode::kSend}) {
      EXPECT_THROW((void)e.qp_a->atomic(op, e.mr.addr, e.mr.rkey, 1),
                   std::logic_error);
    }
    EXPECT_EQ(e.qp_a->outstanding(), 0u);
    std::uint64_t value = 0;
    std::memcpy(&value, e.space.window(e.space.base(), 8).data(), 8);
    EXPECT_EQ(value, 9u);
  }(env));
  env.engine.run();
}

TEST(RdmaWrite, RequestEventMayOutliveItsOperationUnderJitter) {
  // With jitter above ack_latency the remote write can fire after the
  // completion resumed the operation and its coroutine frame was recycled.
  // The task idles afterwards, so a request event that borrowed a frame
  // local reads a pooled (and, under ASan, poisoned) frame.
  int reordered = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    RdmaEnv env;
    sim::SchedulePolicy policy;
    policy.seed = seed;
    policy.jitter_max = 4 * env.fabric.config().ack_latency;
    env.engine.set_schedule_policy(policy);
    env.engine.spawn([](RdmaEnv& e, std::uint64_t value,
                        int& late) -> sim::Task<> {
      std::vector<std::byte> data(8);
      std::memcpy(data.data(), &value, sizeof(value));
      Completion wc =
          co_await e.qp_a->rdma_write(e.mr.addr + 256, e.mr.rkey, data);
      EXPECT_TRUE(wc.ok());
      std::uint64_t seen = 0;
      std::memcpy(&seen, e.space.window(e.space.base() + 256, 8).data(), 8);
      if (seen != value) ++late;
      co_await e.engine.delay(10 * e.fabric.config().ack_latency);
      std::memcpy(&seen, e.space.window(e.space.base() + 256, 8).data(), 8);
      EXPECT_EQ(seen, value);
    }(env, 1000 + seed, reordered));
    env.engine.run();
  }
  EXPECT_GT(reordered, 0);  // the hazard was actually exercised
}

}  // namespace
}  // namespace odcm::fabric
