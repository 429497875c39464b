// Determinism regression for the intra-node shm transport: the same seed
// must produce a bit-identical protocol event stream and metrics snapshot
// with the shm transport enabled, and the 16-PE / 4-PPN hello run is pinned
// against a golden dump: every `core::ProtocolEvent` as one `core::format`
// line, then the job's aggregate counters and phase times.
//
// The golden file lives at tests/shmem/golden/shm_hello_16pe_4ppn.txt. On
// an intentional cost-model or protocol change, the test writes the new
// dump next to the test binary as shm_hello_16pe_4ppn_actual.txt; inspect
// the diff and copy it over the golden file.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "apps/hello.hpp"
#include "shmem/job.hpp"
#include "telemetry/telemetry.hpp"
#include "test_util.hpp"

namespace odcm::shmem {
namespace {

using testutil::JobEnv;
using testutil::small_job;

/// Formats every observed event, one line each.
struct EventDump final : core::ProtocolObserver {
  void on_event(const core::ProtocolEvent& event) override {
    out << core::format(event) << '\n';
  }
  std::ostringstream out{};
};

struct RunOutput {
  std::string dump;
  std::string metrics_json;
};

RunOutput run_hello_shm() {
  core::ConduitConfig conduit = core::proposed_design();
  conduit.intranode_transport = IntranodeTransport::kShm;
  JobEnv env(small_job(16, 4, conduit));
  // Declared after `env`: the observers detach or die before the job.
  EventDump events;
  telemetry::Telemetry session;
  env.job.conduit_job().add_observer(&events);
  session.attach(env.job.conduit_job());
  env.run([](ShmemPe& pe) -> sim::Task<> {
    return apps::hello_pe(pe, apps::HelloParams{});
  });
  session.finish(env.engine.now());

  RunOutput out;
  std::ostringstream dump;
  dump << "# events\n" << events.out.str();
  sim::StatSet stats = env.job.conduit_job().aggregate_stats();
  dump << "# counters\n";
  for (const auto& [name, value] : stats.counters()) {
    dump << name << '=' << value << '\n';
  }
  dump << "# phases\n";
  for (const auto& [name, value] : stats.phases()) {
    dump << name << '=' << value << '\n';
  }
  out.dump = dump.str();
  std::ostringstream metrics;
  session.metrics().to_json().write(metrics, 2);
  out.metrics_json = metrics.str();
  return out;
}

TEST(ShmDeterminism, RepeatedRunsAreBitIdentical) {
  RunOutput first = run_hello_shm();
  RunOutput second = run_hello_shm();
  EXPECT_EQ(first.dump, second.dump);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
  // The run must actually have exercised the shm transport.
  EXPECT_NE(first.dump.find("shm_segment_exported=16"), std::string::npos);
}

TEST(ShmDeterminism, GoldenTrace16Pe4PpnHello) {
  RunOutput run = run_hello_shm();
  const std::string golden_path =
      std::string(ODCM_TEST_GOLDEN_DIR) + "/shm_hello_16pe_4ppn.txt";
  std::ifstream in(golden_path);
  std::ostringstream golden;
  if (in) golden << in.rdbuf();
  if (!in || run.dump != golden.str()) {
    const std::string actual_path = "shm_hello_16pe_4ppn_actual.txt";
    std::ofstream actual(actual_path);
    actual << run.dump;
    FAIL() << "shm hello event dump diverged from the golden file.\n"
           << "  golden: " << golden_path << "\n"
           << "  actual: " << actual_path << " (written by this test)\n"
           << "If the change is intentional, inspect the diff and copy the "
              "actual file over the golden one.";
  }
}

}  // namespace
}  // namespace odcm::shmem
