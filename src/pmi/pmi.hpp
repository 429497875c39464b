// Process Management Interface (PMI) with the paper's non-blocking
// extensions.
//
// Models the out-of-band startup channel every HPC launcher provides
// (SLURM/Hydra/mpirun_rsh): one daemon per node, connected in a k-ary tree
// over a TCP-like management network, exposing a global key-value store to
// the processes of the job.
//
// Blocking API (PMI2):          put / get / fence
// Non-blocking extensions:      ifence_start + wait   (PMIX_Ifence)
//                               iallgather_start + iallgather_wait
//                               (PMIX_Iallgather + PMIX_Wait, §III-E)
//
// Correctness is real (values actually move through a shared store with
// fence-visibility semantics); timing comes from a calibrated cost model:
// per-call client↔daemon IPC overheads, per-node daemon serialization, and
// tree-structured data movement for collective rounds. The job manager
// counts calls and out-of-band bytes (`pmi/...`) into one job-level
// `sim::StatSet`, which the telemetry registry folds in at `finish`.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace odcm::pmi {

using RankId = std::uint32_t;
using NodeId = std::uint32_t;

struct PmiConfig {
  std::uint32_t ranks = 1;
  std::uint32_t ranks_per_node = 1;

  /// Fan-out of the daemon tree (SLURM uses a configurable tree; 8 is a
  /// common default at scale).
  std::uint32_t tree_fanout = 8;

  // ---- client <-> local daemon (shared memory / localhost socket) ----
  sim::Time put_overhead = 5 * sim::usec;
  sim::Time get_overhead = 26 * sim::usec;
  double ipc_bytes_per_ns = 8.0;

  // ---- daemon <-> daemon (management Ethernet, TCP) ----
  sim::Time oob_latency = 200 * sim::usec;
  double oob_bytes_per_ns = 1.25;  ///< ~10 GbE.

  /// Per-entry KVS processing during a fence (hashing, marshalling).
  sim::Time fence_per_entry = 2 * sim::usec;
  /// Per-entry processing cost of the symmetric allgather as the daemons
  /// progress it in the background over TCP. Cheaper than the generic
  /// Put-Fence-Get sequence per *consumer* (one bulk delivery instead of N
  /// gets), but the background dissemination itself still takes real time —
  /// which is exactly what PMIX_Iallgather lets the application hide
  /// (paper §IV-D).
  sim::Time allgather_per_entry = 50 * sim::usec;
};

class PmiClient;

/// Ticket identifying an outstanding non-blocking collective round.
struct CollectiveTicket {
  std::uint32_t round = 0;
};

/// The job-wide process manager: daemons, tree, and key-value store.
class JobManager {
 public:
  JobManager(sim::Engine& engine, PmiConfig config);
  ~JobManager();
  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] const PmiConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint32_t ranks() const noexcept { return config_.ranks; }
  [[nodiscard]] std::uint32_t nodes() const noexcept { return nodes_; }
  [[nodiscard]] NodeId node_of(RankId rank) const;

  /// The PMI client endpoint for one process of the job.
  [[nodiscard]] PmiClient& client(RankId rank);

  // ---- diagnostics ----
  [[nodiscard]] std::uint32_t fences_completed() const noexcept {
    return fences_completed_;
  }
  [[nodiscard]] std::uint64_t oob_bytes_moved() const noexcept {
    return static_cast<std::uint64_t>(stats_.counter("pmi/oob_bytes"));
  }

  /// The job's `pmi/...` call counters (puts, gets, rounds started, bytes).
  /// The counting never touches the cost model. The per-call waits are
  /// timed on each PE by the conduit's `pmi_exchange`/`pmi_wait` phases.
  [[nodiscard]] const sim::StatSet& stats() const noexcept { return stats_; }

 private:
  friend class PmiClient;

  struct Round {
    explicit Round(sim::Engine& engine) : gate(engine) {}
    sim::Gate gate;
    std::uint32_t arrived = 0;
    bool completed = false;
    std::vector<std::string> values{};  // iallgather only, indexed by rank
    std::uint64_t bytes = 0;            // iallgather only, bytes charged
  };

  /// Depth of the k-ary daemon tree.
  [[nodiscard]] std::uint32_t tree_depth() const;

  /// Serialize a client request on its node daemon; returns completion time.
  sim::Time reserve_daemon(NodeId node, sim::Time busy);

  /// Cost of disseminating `bytes` across the daemon tree and processing
  /// `entries` KVS entries (fence path).
  [[nodiscard]] sim::Time fence_cost(std::uint64_t bytes,
                                     std::uint64_t entries) const;
  /// Cost of the optimized symmetric allgather of `bytes` total.
  [[nodiscard]] sim::Time allgather_cost(std::uint64_t bytes,
                                         std::uint64_t entries) const;

  Round& fence_round(std::uint32_t index);
  Round& allgather_round(std::uint32_t index);
  Round& ring_round(std::uint32_t index);

  void arrive_fence(std::uint32_t index);
  void arrive_allgather(std::uint32_t index, std::uint64_t value_bytes);
  void arrive_ring(std::uint32_t index, RankId rank, std::string value);

  sim::Engine& engine_;
  PmiConfig config_;
  std::uint32_t nodes_;
  std::vector<std::unique_ptr<PmiClient>> clients_{};
  std::vector<sim::Time> daemon_free_{};

  // Key-value store: staged puts become visible at the next fence.
  std::map<std::string, std::string> visible_{};
  std::map<std::string, std::string> staged_{};
  std::uint64_t staged_bytes_ = 0;

  std::vector<std::unique_ptr<Round>> fence_rounds_{};
  std::vector<std::unique_ptr<Round>> allgather_rounds_{};
  std::vector<std::unique_ptr<Round>> ring_rounds_{};
  std::uint32_t fences_completed_ = 0;
  sim::StatSet stats_{};
};

/// Per-process PMI endpoint.
class PmiClient {
 public:
  PmiClient(JobManager& manager, RankId rank);
  PmiClient(const PmiClient&) = delete;
  PmiClient& operator=(const PmiClient&) = delete;

  [[nodiscard]] RankId rank() const noexcept { return rank_; }
  [[nodiscard]] NodeId node() const noexcept { return node_; }

  /// PMI2_KVS_Put: stage a key-value pair; visible to others after the next
  /// fence. Duplicate keys overwrite (last fence-epoch wins).
  [[nodiscard]] sim::Task<> put(std::string key, std::string value);

  /// A put whose value nobody reads: costs, counts and stages exactly what
  /// `put` of a `value_bytes`-byte value does (daemon time, fence bytes,
  /// one KVS entry), but the key is published with an empty value. Used by
  /// the bulk static-connect model, whose tables only have to be paid for.
  [[nodiscard]] sim::Task<> charge_put(std::string key,
                                       std::uint64_t value_bytes);

  /// PMI2_KVS_Get: look up a key made visible by a completed fence.
  /// Returns nullopt for unknown keys. Serialized on the node daemon.
  [[nodiscard]] sim::Task<std::optional<std::string>> get(std::string key);

  /// PMI2_KVS_Fence: blocking collective across all ranks.
  [[nodiscard]] sim::Task<> fence();

  /// Charge the node daemon for `count` gets of `value_bytes` each without
  /// executing them. Used by the bulk static-connect model to reproduce the
  /// per-daemon get storm cost in one reservation (DESIGN.md §2).
  [[nodiscard]] sim::Task<> charge_gets(std::uint64_t count,
                                        std::uint64_t value_bytes);

  /// PMIX_Ifence: split-phase fence. `ifence_start` returns immediately
  /// with a ticket; `wait` blocks until that fence round completes.
  [[nodiscard]] CollectiveTicket ifence_start();
  [[nodiscard]] sim::Task<> wait(CollectiveTicket ticket);

  /// PMIX_Iallgather: contribute `value` to a symmetric all-gather that the
  /// process manager progresses in the background (combines Put-Fence-Get,
  /// §III-E). Returns immediately with a ticket.
  [[nodiscard]] CollectiveTicket iallgather_start(std::string value);

  /// Byte-count form: contribute a `value_bytes`-byte value that is
  /// charged like one but delivered as an empty string.
  [[nodiscard]] CollectiveTicket iallgather_start(std::uint64_t value_bytes);

  /// PMIX_Wait for an iallgather: returns all ranks' values, indexed by
  /// rank. Delivery of the result buffer is charged against the node
  /// daemon (bulk IPC), which is why it is far cheaper than N gets. The
  /// values are the round's one job-wide copy, valid as long as the
  /// JobManager.
  [[nodiscard]] sim::Task<std::span<const std::string>> iallgather_wait(
      CollectiveTicket ticket);

  /// PMIX_Ring (Chakraborty et al., EuroMPI'14 — the authors' prior
  /// extension, paper ref. [16]): collective that hands each rank only its
  /// ring neighbors' values — constant data movement per rank regardless
  /// of job size. Returns {left = rank-1, right = rank+1} (wrapping).
  [[nodiscard]] sim::Task<std::pair<std::string, std::string>> ring(
      std::string value);

 private:
  JobManager& manager_;
  RankId rank_;
  NodeId node_;
  std::uint32_t next_fence_ = 0;
  std::uint32_t next_allgather_ = 0;
  std::uint32_t next_ring_ = 0;
};

}  // namespace odcm::pmi
