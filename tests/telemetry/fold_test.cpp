// `Telemetry::finish` folds the job's counter store into the registry:
//
//  * every conduit `sim::StatSet` counter, summed over PEs, and every
//    `pmi/...` counter of the PMI job manager, delta-0 names included;
//  * every phase as a histogram with one sample per PE that touched it,
//    that PE's total;
//  * once per session, and never for a disabled one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>

#include "apps/hello.hpp"
#include "shmem/job.hpp"
#include "sim/engine.hpp"
#include "telemetry/telemetry.hpp"

namespace odcm::telemetry {
namespace {

constexpr std::uint32_t kPes = 16;

/// A 16-PE, 8-PPN hello of `design` with a session attached, then finished.
/// Rank 0 also touches `conn_failures` with delta 0, a name the hello itself
/// never moves.
struct HelloRun {
  explicit HelloRun(bool enabled = true,
                    core::ConduitConfig design = core::proposed_design())
      : job(engine, config(design)), tel(enabled) {
    tel.attach(job.conduit_job());
    job.run([](shmem::ShmemPe& pe) -> sim::Task<> {
      if (pe.rank() == 0) pe.stats().add("conn_failures", 0);
      co_await apps::hello_pe(pe, apps::HelloParams{});
    });
    tel.finish(engine.now());
  }

  static shmem::ShmemJobConfig config(core::ConduitConfig design) {
    shmem::ShmemJobConfig config;
    config.job.ranks = kPes;
    config.job.ranks_per_node = 8;
    config.job.conduit = design;
    config.shmem.heap_bytes = 64 << 10;
    return config;
  }

  sim::Engine engine;
  shmem::ShmemJob job;
  Telemetry tel;  // after `job`: detaches before the job dies
};

/// Registry counters whose names carry no `/`: the folded `StatSet` ones.
std::map<std::string, std::int64_t> stat_counters(const MetricsRegistry& m) {
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, value] : m.counters()) {
    if (name.find('/') == std::string::npos) out.emplace(name, value);
  }
  return out;
}

TEST(TelemetryFold, CountersEqualTheAggregateStatsIncludingDeltaZeroNames) {
  HelloRun run;
  const MetricsRegistry& m = run.tel.metrics();
  std::map<std::string, std::int64_t> expected;
  const sim::StatSet total = run.job.conduit_job().aggregate_stats();
  for (const auto& [name, value] : total.counters()) {
    expected.emplace(name, value);
  }
  EXPECT_EQ(expected.at("conn_failures"), 0);
  EXPECT_EQ(stat_counters(m), expected);
  // The PMI job manager's counters ride along under their own names.
  const sim::StatSet& pmi = run.job.conduit_job().pmi().stats();
  ASSERT_FALSE(pmi.counters().empty());
  for (const auto& [name, value] : pmi.counters()) {
    EXPECT_EQ(m.counter(name), value) << name;
  }
  EXPECT_GT(m.counter("pmi/oob_bytes"), 0);
}

TEST(TelemetryFold, EachPhaseHasOneSamplePerTouchingPeSummingToTheAggregate) {
  HelloRun run;
  const MetricsRegistry& m = run.tel.metrics();
  core::ConduitJob& job = run.job.conduit_job();
  const sim::StatSet total = job.aggregate_stats();
  ASSERT_FALSE(total.phases().empty());
  for (const auto& [name, sum] : total.phases()) {
    std::uint64_t touching = 0;
    for (core::RankId r = 0; r < kPes; ++r) {
      for (const auto& phase : job.conduit(r).stats().phases()) {
        if (phase.first == name) ++touching;
      }
    }
    const Histogram* h = m.histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count(), touching) << name;
    EXPECT_EQ(h->sum(), sum) << name;
  }
}

TEST(TelemetryFold, APhaseTimedTwiceOnAPeIsOneSampleOfItsTotal) {
  // Below the bulk threshold the current design times `connection_setup`
  // twice per PE (QP creation, then the RTR/RTS transitions): 32 timer
  // stops over 16 PEs fold into 16 samples, each a PE's total.
  HelloRun run(true, core::current_design());
  core::ConduitJob& job = run.job.conduit_job();
  std::uint64_t lo = ~std::uint64_t{0};
  std::uint64_t hi = 0;
  for (core::RankId r = 0; r < kPes; ++r) {
    const sim::Time t = job.conduit(r).stats().phase_time("connection_setup");
    lo = std::min<std::uint64_t>(lo, t);
    hi = std::max<std::uint64_t>(hi, t);
  }
  const Histogram* h = run.tel.metrics().histogram("connection_setup");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), kPes);
  EXPECT_EQ(h->sum(), job.aggregate_stats().phase_time("connection_setup"));
  EXPECT_EQ(h->min(), lo);
  EXPECT_EQ(h->max(), hi);
}

TEST(TelemetryFold, SecondFinishDoesNotFoldAgain) {
  HelloRun run;
  const std::string once = run.tel.metrics().to_json().dump();
  run.tel.finish(run.engine.now());
  EXPECT_EQ(run.tel.metrics().to_json().dump(), once);
  EXPECT_EQ(run.tel.metrics().counter("connections_established"),
            run.job.conduit_job().aggregate_stats().counter(
                "connections_established"));
}

TEST(TelemetryFold, DisabledSessionStaysEmpty) {
  HelloRun run(false);
  run.tel.finish(run.engine.now());
  EXPECT_TRUE(run.tel.metrics().counters().empty());
  EXPECT_TRUE(run.tel.metrics().histograms().empty());
}

}  // namespace
}  // namespace odcm::telemetry
