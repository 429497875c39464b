// Integration tests for the job-wide protocol event stream: a recording
// `ProtocolObserver` sees the Fig. 4 handshake in order, lossy runs show
// retransmissions, and the formatted stream is deterministic.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/conduit.hpp"
#include "test_util.hpp"

namespace odcm::core {
namespace {

using testutil::JobEnv;
using testutil::small_job;

struct EventRecorder final : ProtocolObserver {
  void on_event(const ProtocolEvent& event) override {
    events.push_back(event);
  }
  std::vector<ProtocolEvent> events{};
};

/// Init, optionally send one AM to `dst`, then a global barrier.
sim::Task<> send_to(Conduit& c, bool send, RankId dst) {
  c.register_handler(20, [](RankId, std::vector<std::byte>) -> sim::Task<> {
    co_return;
  });
  co_await c.init();
  if (send) co_await c.am_send(dst, 20, std::vector<std::byte>(8));
  co_await c.barrier_global();
}

bool is_phase(const ProtocolEvent& e, PeerPhase from, PeerPhase to) {
  return e.kind == ProtocolEvent::Kind::kPhaseChange && e.from == from &&
         e.to == to;
}

TEST(TraceIntegration, HandshakeEmitsProtocolEvents) {
  JobEnv env(small_job(2, 1));
  EventRecorder recorder;
  env.job.add_observer(&recorder);
  env.run([](Conduit& c) -> sim::Task<> {
    return send_to(c, c.rank() == 0, 1);
  });
  // Initiation (Idle -> Requesting) must precede establishment, and both
  // the client and the server side reach Connected.
  std::size_t initiated = recorder.events.size();
  std::size_t established = recorder.events.size();
  std::size_t connected = 0;
  for (std::size_t i = 0; i < recorder.events.size(); ++i) {
    const ProtocolEvent& e = recorder.events[i];
    if (is_phase(e, PeerPhase::kIdle, PeerPhase::kRequesting) &&
        initiated == recorder.events.size()) {
      initiated = i;
    }
    if (e.kind == ProtocolEvent::Kind::kPhaseChange &&
        e.to == PeerPhase::kConnected && e.self != e.peer) {
      if (established == recorder.events.size()) established = i;
      ++connected;
    }
  }
  ASSERT_LT(initiated, recorder.events.size());
  ASSERT_LT(established, recorder.events.size());
  EXPECT_GE(connected, 2u);  // client + server side
  EXPECT_LT(initiated, established);
  EXPECT_LT(recorder.events[initiated].time,
            recorder.events[established].time);
}

TEST(TraceIntegration, LossyRunShowsRetransmits) {
  JobConfig config = small_job(2, 1);
  config.fabric.ud_drop_rate = 0.7;
  config.fabric.seed = 99;
  JobEnv env(config);
  EventRecorder recorder;
  env.job.add_observer(&recorder);
  env.run([](Conduit& c) -> sim::Task<> {
    return send_to(c, c.rank() == 0, 1);
  });
  std::size_t retransmits = 0;
  for (const ProtocolEvent& e : recorder.events) {
    if (e.kind == ProtocolEvent::Kind::kRetransmit) ++retransmits;
  }
  EXPECT_GE(retransmits, 1u);
}

TEST(TraceIntegration, TraceIsDeterministic) {
  auto run_once = [] {
    JobEnv env(small_job(4, 2));
    EventRecorder recorder;
    env.job.add_observer(&recorder);
    env.run([](Conduit& c) -> sim::Task<> {
      return send_to(c, true, (c.rank() + 1) % 4);
    });
    std::string out;
    for (const ProtocolEvent& e : recorder.events) out += format(e) + "\n";
    return out;
  };
  std::string first = run_once();
  EXPECT_NE(first.find("Idle->Requesting"), std::string::npos) << first;
  EXPECT_EQ(first, run_once());
}

}  // namespace
}  // namespace odcm::core
