// Pins the event stream of every OpenSHMEM RMA route against a golden dump.
//
// One fixed program mixes put, get, put_nbi/get_nbi + quiet, iput/iget and
// the three atomics (compare-swap both hitting and missing) toward a self,
// a same-node and a remote peer, at 8 B, 2 KiB and 16 KiB. It runs on 8 PEs
// at PPN 2 over every cell of {eager, on-demand registration} × {rc, shm}
// × {tiers off, tiers on}, which between them take every branch of the
// put/get and atomic routers: local copy, shm, eager RC, the registration
// chunk loop, the pipelined fragment stream and the rendezvous.
//
// Per cell the dump records the engine's event count and final time, the
// FNV-1a hash and count of the `core::format` event lines, the aggregate
// counters and phases, every PE's heap hash and fetched values. The golden
// file lives at tests/shmem/golden/rma_paths_8pe_2ppn.txt. On an
// intentional cost-model or protocol change the test writes the new dump
// next to the test binary as rma_paths_8pe_2ppn_actual.txt; inspect the
// diff and copy it over the golden file.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "shmem/job.hpp"
#include "test_util.hpp"

namespace odcm::shmem {
namespace {

using testutil::JobEnv;
using testutil::small_job;

constexpr std::uint32_t kPes = 8;
constexpr std::uint32_t kPpn = 2;
constexpr std::array<std::uint32_t, 3> kSizes{8, 2048, 16384};
constexpr std::uint32_t kStrided = 16;  // iput/iget elements (8 B each)

struct Fnv {
  std::uint64_t hash = 14695981039346656037ULL;
  void add(std::span<const std::byte> bytes) {
    for (std::byte b : bytes) {
      hash ^= static_cast<std::uint8_t>(b);
      hash *= 1099511628211ULL;
    }
  }
  void add(const std::string& text) {
    add(std::as_bytes(std::span(text.data(), text.size())));
  }
};

/// Hashes every formatted protocol event line.
struct EventHash final : core::ProtocolObserver {
  void on_event(const core::ProtocolEvent& event) override {
    fnv.add(core::format(event) + '\n');
    ++lines;
  }
  Fnv fnv{};
  std::uint64_t lines = 0;
};

/// What each PE fetched: atomic old values and hashes of its get buffers.
struct PeResult {
  std::vector<std::uint64_t> atomics{};
  Fnv gets{};
};

sim::Task<> rma_program(ShmemPe& pe, PeResult& out) {
  co_await pe.start_pes();
  const std::uint32_t n = pe.n_pes();
  const RankId me = pe.rank();
  // Self, same-node partner, and a peer on the next node.
  const std::array<RankId, 3> peers{me, me ^ 1U, (me + kPpn) % n};

  // Symmetric layout (identical allocation order on every PE). Each
  // location has exactly one writer per peer kind.
  std::array<std::array<SymAddr, kSizes.size()>, 3> put_dst{};
  std::array<SymAddr, 3> nbi_dst{}, strided_dst{}, counter{}, swap_slot{},
      cas_slot{};
  const SymAddr shared = pe.heap().allocate(8, 8);  // contended on PE 0
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t s = 0; s < kSizes.size(); ++s) {
      put_dst[k][s] = pe.heap().allocate(kSizes[s], 8);
    }
    nbi_dst[k] = pe.heap().allocate(kSizes[1], 8);
    strided_dst[k] = pe.heap().allocate(2 * 8 * kStrided, 8);
    counter[k] = pe.heap().allocate(8, 8);
    swap_slot[k] = pe.heap().allocate(8, 8);
    cas_slot[k] = pe.heap().allocate(8, 8);
  }

  std::vector<std::byte> src(kSizes.back());
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::byte>((me * 37 + i * 11 + (i >> 8)) & 0xff);
  }
  const std::span<const std::byte> data(src);

  // Blocking put, then get it back.
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t s = 0; s < kSizes.size(); ++s) {
      co_await pe.put(peers[k], put_dst[k][s], data.first(kSizes[s]));
    }
  }
  co_await pe.barrier_all();
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t s = 0; s < kSizes.size(); ++s) {
      std::vector<std::byte> back(kSizes[s]);
      co_await pe.get(peers[k], put_dst[k][s], back);
      out.gets.add(back);
    }
  }

  // Non-blocking put and get, completed together by quiet.
  std::array<std::vector<std::byte>, 3> nbi_back;
  for (std::size_t k = 0; k < 3; ++k) {
    nbi_back[k].resize(kSizes.back());
    pe.put_nbi(peers[k], nbi_dst[k], data.subspan(64, kSizes[1]));
    pe.get_nbi(peers[k], put_dst[k][2], nbi_back[k]);
  }
  co_await pe.quiet();
  for (const auto& back : nbi_back) out.gets.add(back);

  // Strided put (every other slot), then strided get of the same slots.
  for (std::size_t k = 0; k < 3; ++k) {
    pe.iput(peers[k], strided_dst[k], data.subspan(128, 8 * kStrided), 2, 1,
            8, kStrided);
  }
  co_await pe.quiet();
  co_await pe.barrier_all();
  for (std::size_t k = 0; k < 3; ++k) {
    std::vector<std::byte> back(8 * kStrided);
    co_await pe.iget(peers[k], back, strided_dst[k], 1, 2, 8, kStrided);
    out.gets.add(back);
  }

  // Atomics: fetch-add, swap, compare-swap hit and miss, then a second
  // fetch-add and swap that read back the first round's values.
  for (std::size_t k = 0; k < 3; ++k) {
    out.atomics.push_back(
        co_await pe.atomic_fetch_add(peers[k], counter[k], me + 1));
    out.atomics.push_back(
        co_await pe.atomic_swap(peers[k], swap_slot[k], 0x1000 + me));
    out.atomics.push_back(co_await pe.atomic_compare_swap(
        peers[k], cas_slot[k], 0, 0x2000 + me));
    out.atomics.push_back(co_await pe.atomic_compare_swap(
        peers[k], cas_slot[k], 0, 0x3000 + me));
    out.atomics.push_back(
        co_await pe.atomic_fetch_add(peers[k], counter[k], 0x100));
    out.atomics.push_back(co_await pe.atomic_swap(peers[k], swap_slot[k], 0));
  }
  out.atomics.push_back(co_await pe.atomic_fetch_add(0, shared, me + 1));
  co_await pe.barrier_all();
  co_await pe.finalize();
}

struct Cell {
  RegistrationMode registration;
  IntranodeTransport transport;
  bool tiers;
};

std::string cell_name(const Cell& cell) {
  std::string name = cell.registration == RegistrationMode::kEager
                         ? "eager"
                         : "on_demand";
  name += cell.transport == IntranodeTransport::kShm ? "/shm" : "/rc";
  name += cell.tiers ? "/tiers_on" : "/tiers_off";
  return name;
}

std::string run_cell(const Cell& cell) {
  core::ConduitConfig conduit = core::proposed_design();
  conduit.intranode_transport = cell.transport;
  if (cell.tiers) {
    conduit.eager_threshold = 1024;
    conduit.rendezvous_threshold = 8 * 1024;
    conduit.bulk_chunk_bytes = 1024;
    conduit.qp_credits = 2;
  }
  ShmemJobConfig config = small_job(kPes, kPpn, conduit);
  config.shmem.heap_bytes = 1 << 17;
  config.shmem.registration = cell.registration;
  if (cell.registration == RegistrationMode::kOnDemand) {
    // Small chunks and a tight pin cap: transfers split across chunks and
    // the cache evicts (and invalidates) under load.
    config.shmem.reg_chunk_bytes = 4096;
    config.shmem.reg_pinned_max_bytes = 8 * 4096;
  }
  JobEnv env(config);
  // Declared after `env`: the observer dies before the job.
  EventHash events;
  env.job.conduit_job().add_observer(&events);
  std::vector<PeResult> results(kPes);
  env.run([&results](ShmemPe& pe) -> sim::Task<> {
    return rma_program(pe, results[pe.rank()]);
  });

  std::ostringstream dump;
  dump << "## " << cell_name(cell) << '\n';
  dump << "events_executed=" << env.engine.events_executed() << '\n';
  dump << "now=" << env.engine.now() << '\n';
  dump << "event_lines=" << events.lines << " fnv=" << events.fnv.hash
       << '\n';
  for (RankId r = 0; r < kPes; ++r) {
    Fnv heap;
    heap.add(env.job.pe(r).local_window(0, config.shmem.heap_bytes));
    dump << "pe" << r << " heap=" << heap.hash
         << " gets=" << results[r].gets.hash << " atomics=";
    for (std::size_t i = 0; i < results[r].atomics.size(); ++i) {
      dump << (i == 0 ? "" : ",") << results[r].atomics[i];
    }
    dump << '\n';
  }
  sim::StatSet stats = env.job.conduit_job().aggregate_stats();
  for (const auto& [name, value] : stats.counters()) {
    dump << "counter " << name << '=' << value << '\n';
  }
  for (const auto& [name, value] : stats.phases()) {
    dump << "phase " << name << '=' << value << '\n';
  }
  return dump.str();
}

std::string run_matrix() {
  std::string dump;
  for (RegistrationMode registration :
       {RegistrationMode::kEager, RegistrationMode::kOnDemand}) {
    for (IntranodeTransport transport :
         {IntranodeTransport::kRc, IntranodeTransport::kShm}) {
      for (bool tiers : {false, true}) {
        dump += run_cell(Cell{registration, transport, tiers});
      }
    }
  }
  return dump;
}

TEST(RmaPaths, GoldenEventStreamsAcrossTheModeMatrix) {
  const std::string run = run_matrix();
  const std::string golden_path =
      std::string(ODCM_TEST_GOLDEN_DIR) + "/rma_paths_8pe_2ppn.txt";
  std::ifstream in(golden_path);
  std::ostringstream golden;
  if (in) golden << in.rdbuf();
  if (!in || run != golden.str()) {
    const std::string actual_path = "rma_paths_8pe_2ppn_actual.txt";
    std::ofstream actual(actual_path);
    actual << run;
    FAIL() << "RMA path dump diverged from the golden file.\n"
           << "  golden: " << golden_path << "\n"
           << "  actual: " << actual_path << " (written by this test)\n"
           << "If the change is intentional, inspect the diff and copy the "
              "actual file over the golden one.";
  }
}

}  // namespace
}  // namespace odcm::shmem
