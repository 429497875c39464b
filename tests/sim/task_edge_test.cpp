// Edge-case tests for Task ownership/move semantics and engine behaviours
// not covered by the main engine suite.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace odcm::sim {
namespace {

Task<int> make_value(Engine& engine, int v) {
  co_await engine.delay(1);
  co_return v;
}

TEST(TaskEdge, MoveConstructionTransfersOwnership) {
  Engine engine;
  Task<int> a = make_value(engine, 5);
  EXPECT_TRUE(a.valid());
  Task<int> b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  int result = 0;
  engine.spawn([](Task<int> task, int& out) -> Task<> {
    out = co_await std::move(task);
  }(std::move(b), result));
  engine.run();
  EXPECT_EQ(result, 5);
}

TEST(TaskEdge, MoveAssignmentDestroysPrevious) {
  Engine engine;
  Task<int> a = make_value(engine, 1);
  Task<int> b = make_value(engine, 2);
  a = std::move(b);  // original frame of `a` must be destroyed, no leak
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(b.valid());
  int result = 0;
  engine.spawn([](Task<int> task, int& out) -> Task<> {
    out = co_await std::move(task);
  }(std::move(a), result));
  engine.run();
  EXPECT_EQ(result, 2);
}

TEST(TaskEdge, UnawaitedTaskIsDestroyedSafely) {
  Engine engine;
  {
    Task<int> ignored = make_value(engine, 9);
    // Never started, never awaited: destructor must clean the frame.
  }
  engine.run();  // nothing scheduled
  EXPECT_EQ(engine.events_executed(), 0u);
}

TEST(TaskEdge, SpawnEmptyTaskThrows) {
  Engine engine;
  Task<> empty;
  EXPECT_THROW(engine.spawn(std::move(empty)), std::logic_error);
}

TEST(TaskEdge, MoveOnlyResultsWork) {
  Engine engine;
  auto make_string = [](Engine& eng) -> Task<std::string> {
    co_await eng.delay(1);
    co_return std::string(1000, 'x');
  };
  std::size_t length = 0;
  engine.spawn([](Task<std::string> task, std::size_t& out) -> Task<> {
    std::string value = co_await std::move(task);
    out = value.size();
  }(make_string(engine), length));
  engine.run();
  EXPECT_EQ(length, 1000u);
}

TEST(TaskEdge, SpawnDiscardRunsToCompletion) {
  Engine engine;
  int hits = 0;
  spawn_discard(engine, [](Engine& eng, int& counter) -> Task<int> {
    co_await eng.delay(10);
    ++counter;
    co_return 7;
  }(engine, hits));
  engine.run();
  EXPECT_EQ(hits, 1);
}

TEST(TaskEdge, SequentialRunsReuseEngine) {
  Engine engine;
  for (int round = 0; round < 3; ++round) {
    int done = 0;
    engine.spawn([](Engine& eng, int& out) -> Task<> {
      co_await eng.delay(5);
      out = 1;
    }(engine, done));
    engine.run();
    EXPECT_EQ(done, 1);
  }
  EXPECT_EQ(engine.now(), 15u);
}

TEST(TaskEdge, GateSurvivesWaiterCompletingBeforeOpenCall) {
  Engine engine;
  auto gate = std::make_unique<Gate>(engine);
  bool woke = false;
  engine.spawn([](Gate& g, bool& flag) -> Task<> {
    co_await g.wait();
    flag = true;
  }(*gate, woke));
  engine.schedule_at(10, [&] { gate->open(); });
  engine.run();
  EXPECT_TRUE(woke);
  // Destroying an opened gate with no waiters is trivially safe.
  gate.reset();
}

TEST(TaskEdge, ExceptionInValueTaskPropagates) {
  Engine engine;
  auto thrower = [](Engine& eng) -> Task<int> {
    co_await eng.delay(1);
    throw std::runtime_error("typed boom");
  };
  std::string caught;
  engine.spawn([](Task<int> task, std::string& out) -> Task<> {
    try {
      (void)co_await std::move(task);
    } catch (const std::runtime_error& error) {
      out = error.what();
    }
  }(thrower(engine), caught));
  engine.run();
  EXPECT_EQ(caught, "typed boom");
}

TEST(FramePool, FreedFrameOfTheSameSizeClassIsReused) {
  Engine engine;
  detail::FramePool& pool = detail::FramePool::local();
  pool.trim();
  auto first = make_value(engine, 1).release();
  void* address = first.address();
  first.destroy();
  EXPECT_EQ(pool.cached_total(), 1u);
  auto second = make_value(engine, 2).release();
  EXPECT_EQ(second.address(), address);
  EXPECT_EQ(pool.cached_total(), 0u);
  second.destroy();

  // Direct pool use: sizes within one 16-byte class share a free list.
  void* block = pool.allocate(40);
  pool.deallocate(block, 40);
  EXPECT_EQ(pool.cached(33), 1u);
  void* again = pool.allocate(48);
  EXPECT_EQ(again, block);
  pool.deallocate(again, 48);
  pool.trim();
}

TEST(FramePool, FreeListNeverExceedsItsCap) {
  detail::FramePool& pool = detail::FramePool::local();
  pool.trim();
  constexpr std::size_t kBytes = 96;
  std::vector<void*> blocks;
  for (std::size_t i = 0; i < detail::FramePool::kCap + 50; ++i) {
    blocks.push_back(pool.allocate(kBytes));
  }
  for (void* block : blocks) {
    pool.deallocate(block, kBytes);
    EXPECT_LE(pool.cached(kBytes), detail::FramePool::kCap);
  }
  EXPECT_EQ(pool.cached(kBytes), detail::FramePool::kCap);
  // Frames above the largest class bypass the pool entirely.
  void* large = pool.allocate(detail::FramePool::kMaxPooledBytes + 1);
  pool.deallocate(large, detail::FramePool::kMaxPooledBytes + 1);
  EXPECT_EQ(pool.cached(detail::FramePool::kMaxPooledBytes + 1), 0u);
  EXPECT_EQ(pool.cached_total(), detail::FramePool::kCap);
  pool.trim();
  EXPECT_EQ(pool.cached_total(), 0u);
}

TEST(FramePool, EngineDestructorEmptiesThePool) {
  detail::FramePool& pool = detail::FramePool::local();
  {
    Engine engine;
    int sum = 0;
    for (int i = 0; i < 10; ++i) {
      engine.spawn([](Engine& eng, int& out, int v) -> Task<> {
        out += co_await make_value(eng, v);
      }(engine, sum, i));
    }
    engine.run();
    EXPECT_EQ(sum, 45);
    EXPECT_GT(pool.cached_total(), 0u);
  }
  EXPECT_EQ(pool.cached_total(), 0u);
}

#if defined(ODCM_SIM_ASAN)
TEST(FramePool, PooledFramesArePoisonedUnderAsan) {
  detail::FramePool& pool = detail::FramePool::local();
  pool.trim();
  void* block = pool.allocate(64);
  EXPECT_FALSE(__asan_address_is_poisoned(block));
  pool.deallocate(block, 64);
  EXPECT_TRUE(__asan_address_is_poisoned(block));
  EXPECT_TRUE(__asan_address_is_poisoned(static_cast<char*>(block) + 63));
  void* again = pool.allocate(64);
  ASSERT_EQ(again, block);
  EXPECT_FALSE(__asan_address_is_poisoned(again));
  EXPECT_FALSE(__asan_address_is_poisoned(static_cast<char*>(again) + 63));
  pool.deallocate(again, 64);
  pool.trim();
}
#endif

}  // namespace
}  // namespace odcm::sim
