// Parameterized fabric sweeps: RDMA correctness over sizes/offsets, random
// operation sequences against a shadow buffer, and latency-model
// monotonicity properties.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "fabric/fabric.hpp"
#include "sim/random.hpp"
#include "test_util.hpp"

namespace odcm::fabric {
namespace {

using testutil::Env;

struct RdmaCase {
  std::size_t size;
  std::size_t offset;
};

void PrintTo(const RdmaCase& c, std::ostream* os) {
  *os << "size" << c.size << "_off" << c.offset;
}

class RdmaSizeSweep : public ::testing::TestWithParam<RdmaCase> {};

TEST_P(RdmaSizeSweep, WriteThenReadRoundTrips) {
  auto [size, offset] = GetParam();
  Env env;
  AddressSpace space(1, make_va_base(1), 1 << 20);
  env.engine.spawn([](Env& e, AddressSpace& mem, std::size_t bytes,
                      std::size_t off) -> sim::Task<> {
    QueuePair* a = nullptr;
    QueuePair* b = nullptr;
    co_await testutil::connect_rc_pair(e.fabric, a, b);
    MemoryRegion mr =
        co_await e.fabric.hca(1).register_memory(mem, mem.base(), mem.size());

    std::vector<std::byte> data(bytes);
    for (std::size_t i = 0; i < bytes; ++i) {
      data[i] = static_cast<std::byte>((i * 131 + off) % 251);
    }
    Completion put_wc =
        co_await a->rdma_write(mr.addr + off, mr.rkey, data);
    EXPECT_TRUE(put_wc.ok());
    EXPECT_EQ(put_wc.byte_len, bytes);

    std::vector<std::byte> back(bytes);
    Completion get_wc = co_await a->rdma_read(mr.addr + off, mr.rkey, back);
    EXPECT_TRUE(get_wc.ok());
    EXPECT_EQ(back, data);

    // Bytes around the window must be untouched.
    if (off > 0) {
      EXPECT_EQ(mem.window(mem.base() + off - 1, 1)[0], std::byte{0});
    }
    EXPECT_EQ(mem.window(mem.base() + off + bytes, 1)[0], std::byte{0});
  }(env, space, size, offset));
  env.engine.run();
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndOffsets, RdmaSizeSweep,
    ::testing::Values(RdmaCase{1, 1}, RdmaCase{1, 4095}, RdmaCase{7, 3},
                      RdmaCase{8, 8}, RdmaCase{64, 1}, RdmaCase{255, 4093},
                      RdmaCase{4096, 0}, RdmaCase{4097, 1},
                      RdmaCase{65536, 12345}, RdmaCase{1 << 19, 64}));

// Random operation sequence vs a shadow buffer: write/read/atomic ops in a
// seeded random order must leave the remote memory exactly like the shadow.
class RandomOpFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomOpFuzz, MatchesShadowBuffer) {
  const std::uint64_t seed = GetParam();
  Env env;
  constexpr std::size_t kBytes = 4096;
  AddressSpace space(1, make_va_base(1), kBytes);
  std::vector<std::byte> shadow(kBytes, std::byte{0});

  env.engine.spawn([](Env& e, AddressSpace& mem,
                      std::vector<std::byte>& model,
                      std::uint64_t rng_seed) -> sim::Task<> {
    QueuePair* a = nullptr;
    QueuePair* b = nullptr;
    co_await testutil::connect_rc_pair(e.fabric, a, b);
    MemoryRegion mr =
        co_await e.fabric.hca(1).register_memory(mem, mem.base(), mem.size());
    sim::Rng rng(rng_seed);

    for (int op = 0; op < 200; ++op) {
      std::uint64_t kind = rng.next_below(4);
      if (kind == 0) {  // write
        std::size_t size = 1 + rng.next_below(256);
        std::size_t off = rng.next_below(model.size() - size);
        std::vector<std::byte> data(size);
        for (auto& byte : data) {
          byte = static_cast<std::byte>(rng.next_below(256));
        }
        std::copy(data.begin(), data.end(), model.begin() + off);
        Completion wc = co_await a->rdma_write(mr.addr + off, mr.rkey, data);
        EXPECT_TRUE(wc.ok());
      } else if (kind == 1) {  // read must match the model
        std::size_t size = 1 + rng.next_below(256);
        std::size_t off = rng.next_below(model.size() - size);
        std::vector<std::byte> back(size);
        Completion wc = co_await a->rdma_read(mr.addr + off, mr.rkey, back);
        EXPECT_TRUE(wc.ok());
        EXPECT_TRUE(std::equal(back.begin(), back.end(),
                               model.begin() + off));
      } else if (kind == 2) {  // fetch-add on an aligned slot
        std::size_t slot = rng.next_below(model.size() / 8 - 1) * 8;
        std::uint64_t add = rng.next_below(1000);
        std::uint64_t old_model = 0;
        std::memcpy(&old_model, model.data() + slot, 8);
        std::uint64_t new_model = old_model + add;
        std::memcpy(model.data() + slot, &new_model, 8);
        Completion wc = co_await a->atomic(WcOpcode::kFetchAdd, mr.addr + slot,
                                           mr.rkey, add);
        EXPECT_TRUE(wc.ok());
        EXPECT_EQ(wc.atomic_old, old_model);
      } else {  // compare-swap
        std::size_t slot = rng.next_below(model.size() / 8 - 1) * 8;
        std::uint64_t expect = rng.chance(0.5) ? 0 : rng.next_u64();
        std::uint64_t desired = rng.next_u64();
        std::uint64_t old_model = 0;
        std::memcpy(&old_model, model.data() + slot, 8);
        if (old_model == expect) {
          std::memcpy(model.data() + slot, &desired, 8);
        }
        Completion wc = co_await a->atomic(
            WcOpcode::kCompareSwap, mr.addr + slot, mr.rkey, desired, expect);
        EXPECT_TRUE(wc.ok());
        EXPECT_EQ(wc.atomic_old, old_model);
      }
    }
    // Final state comparison.
    auto window = mem.window(mem.base(), model.size());
    EXPECT_TRUE(std::equal(model.begin(), model.end(), window.begin()));
  }(env, space, shadow, seed));
  env.engine.run();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomOpFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

// Latency-model properties: monotone in size, loopback < wire, and the
// injection serialization never goes backwards.
class LatencyMonotonic
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(LatencyMonotonic, LargerIsNeverFaster) {
  auto [small, large] = GetParam();
  if (small > large) std::swap(small, large);
  Env env;
  EXPECT_LE(env.fabric.transfer_latency(1, 2, small),
            env.fabric.transfer_latency(1, 2, large));
  EXPECT_LE(env.fabric.transfer_latency(1, 1, small),
            env.fabric.transfer_latency(1, 1, large));
  EXPECT_LT(env.fabric.transfer_latency(1, 1, small),
            env.fabric.transfer_latency(1, 2, small));
}

INSTANTIATE_TEST_SUITE_P(
    SizePairs, LatencyMonotonic,
    ::testing::Values(std::tuple{0, 1}, std::tuple{1, 8}, std::tuple{8, 64},
                      std::tuple{64, 4096}, std::tuple{4096, 1 << 20},
                      std::tuple{100, 100}));

}  // namespace
}  // namespace odcm::fabric
