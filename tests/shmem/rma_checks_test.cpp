// Input and lifecycle checks at the OpenSHMEM RMA entries.
//
// Every put, get and atomic is checked before it suspends or spawns
// anything: the PE must be between start_pes and finalize (logic_error
// naming the op), `[addr, addr + len)` must lie in the symmetric heap
// without wrapping around (out_of_range), and an atomic's address must be
// 8-byte aligned (invalid_argument). The checks run at the initiator, so
// a rejected op leaves no trace on the connection or at the target and
// the job finalizes cleanly afterwards, in every registration × transport
// mode and toward self, same-node and remote peers alike.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "shmem/job.hpp"
#include "test_util.hpp"

namespace odcm::shmem {
namespace {

using testutil::JobEnv;
using testutil::small_job;

/// How an operation ended: "ok", or the exception type and its message.
struct Outcome {
  std::string type;
  std::string what{};
};

/// Start `op` and await it, catching what it throws either at the call or
/// while it runs.
template <typename T>
sim::Task<Outcome> outcome(std::function<sim::Task<T>()> op) {
  Outcome result{"ok"};
  try {
    (void)co_await op();
  } catch (const std::out_of_range& e) {
    result = {"out_of_range", e.what()};
  } catch (const std::invalid_argument& e) {
    result = {"invalid_argument", e.what()};
  } catch (const std::logic_error& e) {
    result = {"logic_error", e.what()};
  } catch (const std::exception& e) {
    result = {"other", e.what()};
  }
  co_return result;
}

struct Mode {
  RegistrationMode registration;
  IntranodeTransport transport;
};

constexpr std::array<Mode, 4> kModes{{
    {RegistrationMode::kEager, IntranodeTransport::kRc},
    {RegistrationMode::kEager, IntranodeTransport::kShm},
    {RegistrationMode::kOnDemand, IntranodeTransport::kRc},
    {RegistrationMode::kOnDemand, IntranodeTransport::kShm},
}};

std::string mode_name(const Mode& mode) {
  std::string name =
      mode.registration == RegistrationMode::kEager ? "eager" : "on_demand";
  return name + (mode.transport == IntranodeTransport::kShm ? "/shm" : "/rc");
}

/// 4 PEs on 2 nodes; rank 0 sees rank 0 as self, 1 as same-node and 2 as
/// remote. 4 KiB registration chunks under on-demand registration.
ShmemJobConfig mode_job(const Mode& mode) {
  core::ConduitConfig conduit = core::proposed_design();
  conduit.intranode_transport = mode.transport;
  ShmemJobConfig config = small_job(4, 2, conduit);
  config.shmem.registration = mode.registration;
  config.shmem.reg_chunk_bytes = 4096;
  return config;
}

constexpr std::array<RankId, 3> kTargets{0, 1, 2};

TEST(RmaChecks, OverflowingAddressThrowsAtTheInitiatorInEveryMode) {
  constexpr SymAddr kWrapping = std::numeric_limits<SymAddr>::max() - 7;
  for (const Mode& mode : kModes) {
    SCOPED_TRACE(mode_name(mode));
    JobEnv env(mode_job(mode));
    std::vector<std::string> seen;
    env.run([&seen](ShmemPe& pe) -> sim::Task<> {
      co_await pe.start_pes();
      if (pe.rank() == 0) {
        std::vector<std::byte> data(16);
        for (RankId dst : kTargets) {
          seen.push_back((co_await outcome<void>([&] {
                           return pe.put(dst, kWrapping, data);
                         })).type);
          seen.push_back((co_await outcome<void>([&] {
                           return pe.get(dst, kWrapping, data);
                         })).type);
          seen.push_back((co_await outcome<std::uint64_t>([&] {
                           return pe.atomic_fetch_add(dst, kWrapping, 1);
                         })).type);
        }
      }
      co_await pe.barrier_all();
      co_await pe.finalize();
    });
    EXPECT_EQ(seen, std::vector<std::string>(9, "out_of_range"));
  }
}

TEST(RmaChecks, MisalignedAtomicIsRejectedInEveryMode) {
  // Address 3 is misaligned everywhere; 4092 also straddles the 4 KiB
  // registration chunk boundary.
  for (const Mode& mode : kModes) {
    SCOPED_TRACE(mode_name(mode));
    JobEnv env(mode_job(mode));
    std::vector<std::string> seen;
    env.run([&seen](ShmemPe& pe) -> sim::Task<> {
      co_await pe.start_pes();
      if (pe.rank() == 0) {
        for (RankId dst : kTargets) {
          for (SymAddr addr : {SymAddr{3}, SymAddr{4092}}) {
            seen.push_back((co_await outcome<std::uint64_t>([&] {
                             return pe.atomic_fetch_add(dst, addr, 1);
                           })).type);
            seen.push_back((co_await outcome<std::uint64_t>([&] {
                             return pe.atomic_swap(dst, addr, 1);
                           })).type);
            seen.push_back((co_await outcome<std::uint64_t>([&] {
                             return pe.atomic_compare_swap(dst, addr, 0, 1);
                           })).type);
          }
        }
        // An aligned atomic right before the boundary still works.
        EXPECT_EQ(co_await pe.atomic_fetch_add(2, 4088, 5), 0u);
      }
      co_await pe.barrier_all();
      co_await pe.finalize();
    });
    EXPECT_EQ(seen, std::vector<std::string>(18, "invalid_argument"));
  }
}

/// Every data op toward `dst`, each expected to throw logic_error naming
/// itself.
sim::Task<> expect_all_ops_rejected(ShmemPe& pe, RankId dst,
                                    const char* when) {
  std::vector<std::byte> buf(64);
  const std::vector<std::pair<std::string, std::function<sim::Task<>()>>>
      ops{
          {"put", [&] { return pe.put(dst, 0, buf); }},
          {"get", [&] { return pe.get(dst, 0, buf); }},
          {"put",
           [&] { return pe.put_value<std::uint64_t>(dst, 0, 1); }},
          {"put_nbi",
           [&]() -> sim::Task<> {
             pe.put_nbi(dst, 0, buf);
             co_return;
           }},
          {"get_nbi",
           [&]() -> sim::Task<> {
             pe.get_nbi(dst, 0, buf);
             co_return;
           }},
          {"iput",
           [&]() -> sim::Task<> {
             pe.iput(dst, 0, buf, 2, 1, 8, 4);
             co_return;
           }},
          {"iget", [&] { return pe.iget(dst, buf, 0, 1, 2, 8, 4); }},
          {"atomic_add", [&] { return pe.atomic_add(dst, 0, 1); }},
          {"atomic_inc", [&] { return pe.atomic_inc(dst, 0); }},
      };
  for (const auto& [name, op] : ops) {
    Outcome result = co_await outcome<void>(op);
    EXPECT_EQ(result.type, "logic_error") << name << " " << when;
    EXPECT_NE(result.what.find(name), std::string::npos)
        << result.what << " (" << when << ")";
  }
  const std::vector<
      std::pair<std::string, std::function<sim::Task<std::uint64_t>()>>>
      atomics{
          {"atomic_fetch_add",
           [&] { return pe.atomic_fetch_add(dst, 0, 1); }},
          {"atomic_fetch_inc", [&] { return pe.atomic_fetch_inc(dst, 0); }},
          {"atomic_swap", [&] { return pe.atomic_swap(dst, 0, 1); }},
          {"atomic_compare_swap",
           [&] { return pe.atomic_compare_swap(dst, 0, 0, 1); }},
          {"get", [&] { return pe.get_value<std::uint64_t>(dst, 0); }},
      };
  for (const auto& [name, op] : atomics) {
    Outcome result = co_await outcome<std::uint64_t>(op);
    EXPECT_EQ(result.type, "logic_error") << name << " " << when;
    EXPECT_NE(result.what.find(name), std::string::npos)
        << result.what << " (" << when << ")";
  }
}

TEST(RmaChecks, DataOpsOutsideStartPesAndFinalizeFailLoudly) {
  for (const Mode& mode : kModes) {
    SCOPED_TRACE(mode_name(mode));
    JobEnv env(mode_job(mode));
    env.run([](ShmemPe& pe) -> sim::Task<> {
      if (pe.rank() == 0) {
        for (RankId dst : kTargets) {
          co_await expect_all_ops_rejected(pe, dst, "before start_pes");
        }
      }
      co_await pe.start_pes();
      co_await pe.barrier_all();
      co_await pe.finalize();
      if (pe.rank() == 0) {
        for (RankId dst : kTargets) {
          co_await expect_all_ops_rejected(pe, dst, "after finalize");
        }
      }
    });
  }
}

}  // namespace
}  // namespace odcm::shmem
