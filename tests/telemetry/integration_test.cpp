// End-to-end telemetry tests against real simulated jobs:
//
//  * determinism — two identically-seeded runs export byte-identical
//    BENCH-schema JSON and Chrome traces;
//  * zero-cost-off — a run with telemetry attached (or disabled) has
//    bit-identical virtual times to a bare run;
//  * the BENCH_*.json emitter and validator agree, and its table printer
//    lays rows out at the chosen precision.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "apps/hello.hpp"
#include "shmem/job.hpp"
#include "sim/engine.hpp"
#include "telemetry/bench_report.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/telemetry.hpp"

namespace odcm::telemetry {
namespace {

constexpr std::uint32_t kPes = 16;

shmem::ShmemJobConfig hello_config(bool lossy = false) {
  shmem::ShmemJobConfig config;
  config.job.ranks = kPes;
  config.job.ranks_per_node = 8;
  config.job.conduit = core::proposed_design();
  config.shmem.heap_bytes = 64 << 10;
  if (lossy) {
    config.job.fabric.ud_drop_rate = 0.3;
    config.job.fabric.ud_jitter_max = 2 * sim::usec;
  }
  return config;
}

struct RunResult {
  sim::Time makespan = 0;
  std::vector<sim::Time> start_pes_times{};
  std::string bench_json{};
  std::string trace_json{};
  /// Counters + histograms the session's registry holds after the run.
  std::size_t recorded = 0;
};

/// Run a 16-PE hello-world; `mode`: 0 = no telemetry object at all,
/// 1 = telemetry attached, 2 = disabled telemetry session.
RunResult run_hello(int mode, bool lossy = false) {
  sim::Engine engine;
  shmem::ShmemJob job(engine, hello_config(lossy));
  Telemetry tel(mode == 1);
  if (mode != 0) tel.attach(job.conduit_job());
  RunResult result;
  result.makespan = job.run([](shmem::ShmemPe& pe) -> sim::Task<> {
    co_await apps::hello_pe(pe, apps::HelloParams{});
  });
  tel.finish(engine.now());
  result.recorded =
      tel.metrics().counters().size() + tel.metrics().histograms().size();
  for (std::uint32_t r = 0; r < kPes; ++r) {
    result.start_pes_times.push_back(
        job.pe(r).stats().phase_time("start_pes_total"));
  }
  if (mode == 1) {
    BenchReport report("hello", 1);
    report.set_config("pes", std::int64_t{kPes});
    report.set_metric("wall_s", sim::to_seconds(result.makespan));
    report.set_metrics_from(tel.metrics());
    std::ostringstream bench;
    report.write(bench);
    result.bench_json = bench.str();
    std::ostringstream trace;
    export_chrome_trace(trace, tel.timeline(), kPes);
    result.trace_json = trace.str();
  }
  return result;
}

TEST(TelemetryIntegration, RepeatRunsAreByteIdentical) {
  RunResult a = run_hello(1);
  RunResult b = run_hello(1);
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_FALSE(a.bench_json.empty());
  EXPECT_EQ(a.bench_json, b.bench_json);
  ASSERT_FALSE(a.trace_json.empty());
  EXPECT_EQ(a.trace_json, b.trace_json);
}

TEST(TelemetryIntegration, AttachedTelemetryDoesNotPerturbVirtualTime) {
  RunResult bare = run_hello(0);
  RunResult attached = run_hello(1);
  RunResult disabled = run_hello(2);
  EXPECT_EQ(bare.makespan, attached.makespan);
  EXPECT_EQ(bare.makespan, disabled.makespan);
  EXPECT_EQ(bare.start_pes_times, attached.start_pes_times);
  EXPECT_EQ(bare.start_pes_times, disabled.start_pes_times);
  // A disabled session attaches nothing, so its registry stays empty.
  EXPECT_GT(attached.recorded, 0u);
  EXPECT_EQ(disabled.recorded, 0u);
}

TEST(TelemetryIntegration, LossyRunVirtualTimeAlsoUnperturbed) {
  RunResult bare = run_hello(0, /*lossy=*/true);
  RunResult attached = run_hello(1, /*lossy=*/true);
  EXPECT_EQ(bare.makespan, attached.makespan);
  EXPECT_EQ(bare.start_pes_times, attached.start_pes_times);
}

TEST(TelemetryIntegration, RegistryCapturesTheWholeJob) {
  sim::Engine engine;
  shmem::ShmemJob job(engine, hello_config());
  Telemetry tel;
  tel.attach(job.conduit_job());
  job.run([](shmem::ShmemPe& pe) -> sim::Task<> {
    co_await apps::hello_pe(pe, apps::HelloParams{});
  });
  tel.finish(engine.now());
  const MetricsRegistry& m = tel.metrics();
  // Every PE's conduit stats fold into the one registry...
  EXPECT_EQ(m.counter("connections_established"),
            static_cast<std::int64_t>(tel.timeline().handshakes().size()));
  // ...so do the PMI job manager's counters...
  EXPECT_GT(m.counter("pmi/oob_bytes"), 0);
  // ...and the protocol stream feeds the handshake histogram.
  ASSERT_NE(m.histogram("conn/handshake_time"), nullptr);
  EXPECT_EQ(m.histogram("conn/handshake_time")->count(),
            static_cast<std::uint64_t>(m.counter("conn/handshakes_completed")));
  for (const auto& hs : tel.timeline().handshakes()) {
    EXPECT_TRUE(hs.complete);
  }
}

TEST(TelemetryIntegration, LossyHandshakesCarryRetransmitAnnotations) {
  sim::Engine engine;
  shmem::ShmemJob job(engine, hello_config(/*lossy=*/true));
  Telemetry tel;
  tel.attach(job.conduit_job());
  job.run([](shmem::ShmemPe& pe) -> sim::Task<> {
    co_await apps::hello_pe(pe, apps::HelloParams{});
  });
  tel.finish(engine.now());
  EXPECT_GT(tel.metrics().counter("conn/retransmits"), 0);
  std::ostringstream trace;
  export_chrome_trace(trace, tel.timeline(), kPes);
  EXPECT_NE(trace.str().find("\"retransmit\""), std::string::npos);
}

TEST(BenchReport, EmitterOutputValidates) {
  RunResult run = run_hello(1);
  JsonValue doc = JsonValue::parse(run.bench_json);
  std::string error;
  EXPECT_TRUE(BenchReport::validate(doc, &error)) << error;
}

TEST(BenchReport, ValidatorRejectsBrokenDocuments) {
  std::string error;
  auto invalid = [&error](const char* text) {
    return !BenchReport::validate(JsonValue::parse(text), &error);
  };
  EXPECT_TRUE(invalid("{}"));
  EXPECT_TRUE(invalid(R"({"schema":"other","schema_version":1,"bench":"b",)"
                      R"("config":{},"seed":1,"metrics":{},"series":[]})"));
  EXPECT_TRUE(invalid(R"({"schema":"odcm-bench","schema_version":2,)"
                      R"("bench":"b","config":{},"seed":1,"metrics":{},)"
                      R"("series":[]})"));
  EXPECT_TRUE(invalid(R"({"schema":"odcm-bench","schema_version":1,)"
                      R"("bench":"b","config":{},"seed":1,)"
                      R"("metrics":{"m":"text"},"series":[]})"));
  EXPECT_TRUE(invalid(R"({"schema":"odcm-bench","schema_version":1,)"
                      R"("bench":"b","config":{},"seed":1,"metrics":{},)"
                      R"("series":[{"name":"s","values":{}}]})"));
  // And accepts a minimal valid one.
  EXPECT_FALSE(invalid(R"({"schema":"odcm-bench","schema_version":1,)"
                       R"("bench":"b","config":{},"seed":1,"metrics":{},)"
                       R"("series":[{"name":"s","x":1,"values":{"v":2}}]})"));
}

TEST(BenchReport, PrintTablesAlignsSeriesAtChosenPrecision) {
  BenchReport report("demo", 1);
  report.set_config("pes", std::int64_t{64});
  report.add_row("loss", 0.1, {{"wall_s", 1.91849}, {"count", 495}});
  report.add_row("loss", 0.5, {{"wall_s", 2.48251}, {"count", 5900}});
  report.add_row("tiers", 0, {{"us", 22.184}}, "eager");
  report.add_row("tiers", 1, {{"us", 1048576}});
  report.set_metric("ratio", 3.14159);
  report.set_decimals(3, {"wall_s"});
  report.set_decimals(2, {"loss/x"});
  std::ostringstream out;
  report.print_tables(out);
  EXPECT_EQ(out.str(),
            "demo: config pes=64\n"
            "demo: loss\n"
            "     x  wall_s  count\n"
            "  0.10   1.918    495\n"
            "  0.50   2.483   5900\n"
            "demo: tiers\n"
            "  x  label       us\n"
            "  0  eager   22.184\n"
            "  1         1048576\n"
            "demo: metrics\n"
            "  ratio = 3.14159\n");
}

}  // namespace
}  // namespace odcm::telemetry
