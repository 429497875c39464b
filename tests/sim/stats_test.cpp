// Unit tests for StatSet and PhaseTimer.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/stat_names.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"

namespace odcm::sim {
namespace {

TEST(StatSet, CountersDefaultToZero) {
  StatSet stats;
  EXPECT_EQ(stats.counter("missing"), 0);
  EXPECT_EQ(stats.phase_time("missing"), 0u);
}

TEST(StatSet, AddAccumulates) {
  StatSet stats;
  stats.add("qp_created_rc");
  stats.add("qp_created_rc", 4);
  EXPECT_EQ(stats.counter("qp_created_rc"), 5);
}

TEST(StatSet, NegativeDeltasAllowed) {
  StatSet stats;
  stats.add("credits_returned", 10);
  stats.add("credits_returned", -3);
  EXPECT_EQ(stats.counter("credits_returned"), 7);
}

TEST(StatSet, MergeCombinesBoth) {
  StatSet a;
  StatSet b;
  a.add("am_sent", 1);
  a.add_time("pmi_exchange", 100);
  b.add("am_sent", 2);
  b.add("am_received", 3);
  b.add_time("pmi_exchange", 50);
  a.merge(b);
  EXPECT_EQ(a.counter("am_sent"), 3);
  EXPECT_EQ(a.counter("am_received"), 3);
  EXPECT_EQ(a.phase_time("pmi_exchange"), 150u);
}

TEST(StatSet, ClearResets) {
  StatSet stats;
  stats.add("am_sent");
  stats.add_time("pmi_exchange", 1);
  stats.clear();
  EXPECT_TRUE(stats.counters().empty());
  EXPECT_TRUE(stats.phases().empty());
}

TEST(StatSet, DeltaZeroTouchMakesTheNameAppear) {
  StatSet stats;
  stats.add("conn_failures", 0);
  stats.add_time("pmi_wait", 0);
  std::vector<std::pair<std::string, std::int64_t>> counters;
  for (const auto& [name, value] : stats.counters()) {
    counters.emplace_back(name, value);
  }
  std::vector<std::pair<std::string, Time>> phases;
  for (const auto& [name, value] : stats.phases()) {
    phases.emplace_back(name, value);
  }
  EXPECT_EQ(counters, (std::vector<std::pair<std::string, std::int64_t>>{
                          {"conn_failures", 0}}));
  EXPECT_EQ(phases,
            (std::vector<std::pair<std::string, Time>>{{"pmi_wait", 0}}));
}

TEST(StatSet, ReadViewYieldsTouchedNamesSorted) {
  StatSet stats;
  // Touched out of name order, one of them twice.
  stats.add("start_pes_total");
  stats.add("am_sent", 2);
  stats.add("mpi_send");
  stats.add("am_sent");
  stats.add_time("segment_exchange", 7);
  stats.add_time("connection_setup", 3);
  std::vector<std::string> names;
  for (const auto& [name, value] : stats.counters()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"am_sent", "mpi_send",
                                             "start_pes_total"}));
  EXPECT_EQ(stats.counter("am_sent"), 3);
  names.clear();
  for (const auto& [name, value] : stats.phases()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"connection_setup",
                                             "segment_exchange"}));
}

TEST(StatSet, UntouchedNamesReadZero) {
  StatSet stats;
  EXPECT_TRUE(stats.counters().empty());
  EXPECT_TRUE(stats.phases().empty());
  stats.add("am_sent", 5);
  EXPECT_EQ(stats.counter("am_received"), 0);
  EXPECT_EQ(stats.phase_time("am_sent"), 0u);  // counters and phases apart
  EXPECT_EQ(stats.counter("not_a_stat_name"), 0);
  EXPECT_TRUE(stats.phases().empty());
}

TEST(StatSet, MergeKeepsDeltaZeroTouchesAndClearForgetsThem) {
  StatSet a;
  StatSet b;
  b.add("rdv_aborted", 0);
  b.add_time("rkey_fault_wait", 0);
  a.merge(b);
  EXPECT_FALSE(a.counters().empty());
  EXPECT_FALSE(a.phases().empty());
  EXPECT_EQ((*a.counters().begin()).first, "rdv_aborted");
  a.clear();
  EXPECT_TRUE(a.counters().empty());
  EXPECT_TRUE(a.phases().empty());
  a.add("am_sent");  // usable again after clear
  EXPECT_EQ(a.counter("am_sent"), 1);
}

TEST(StatName, InternsEveryTableEntryAtItsIndex) {
  static_assert(StatName("am_received").id() == 0);
  static_assert(StatName("start_pes_total").id() == kStatNameCount - 1);
  static_assert(StatName("qp_created_rc").view() == "qp_created_rc");
  for (std::size_t id = 0; id < kStatNameCount; ++id) {
    EXPECT_EQ(find_stat_name(kStatNames[id]), id);
    EXPECT_EQ(stat_name_string(id), kStatNames[id]);
  }
  EXPECT_EQ(find_stat_name("qp_created"), kStatNameCount);
}

TEST(PhaseTimer, MeasuresVirtualTimeAcrossSuspension) {
  Engine engine;
  StatSet stats;
  engine.spawn([](Engine& eng, StatSet& st) -> Task<> {
    PhaseTimer timer(eng, st, "connection_setup");
    co_await eng.delay(250);
  }(engine, stats));
  engine.run();
  EXPECT_EQ(stats.phase_time("connection_setup"), 250u);
}

TEST(PhaseTimer, StopIsIdempotent) {
  Engine engine;
  StatSet stats;
  engine.spawn([](Engine& eng, StatSet& st) -> Task<> {
    PhaseTimer timer(eng, st, "init_other");
    co_await eng.delay(10);
    timer.stop();
    co_await eng.delay(90);
    timer.stop();  // no additional time recorded
  }(engine, stats));
  engine.run();
  EXPECT_EQ(stats.phase_time("init_other"), 10u);
}

TEST(PhaseTimer, SequentialPhasesAccumulateSeparately) {
  Engine engine;
  StatSet stats;
  engine.spawn([](Engine& eng, StatSet& st) -> Task<> {
    {
      PhaseTimer timer(eng, st, "init_barrier");
      co_await eng.delay(10);
    }
    {
      PhaseTimer timer(eng, st, "init_other");
      co_await eng.delay(20);
    }
    {
      PhaseTimer timer(eng, st, "init_barrier");
      co_await eng.delay(5);
    }
  }(engine, stats));
  engine.run();
  EXPECT_EQ(stats.phase_time("init_barrier"), 15u);
  EXPECT_EQ(stats.phase_time("init_other"), 20u);
}

}  // namespace
}  // namespace odcm::sim
