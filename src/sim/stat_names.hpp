// The interned names of every `StatSet` counter and phase.
//
// A counter or phase is recorded by its index in `kStatNames`, so the hot
// path (`StatSet::add`/`add_time`) indexes a flat array instead of walking a
// string-keyed map. `StatName` converts from a string literal at compile
// time only: a name missing from the table does not compile. Adding a
// counter or phase means adding its name here, in sorted position.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

namespace odcm::sim {

/// Every counter and phase name, sorted by byte order: the order in which
/// `StatSet::counters()` and `phases()` yield them.
inline constexpr std::string_view kStatNames[] = {
    "am_received",
    "am_sent",
    "am_sent_shm",
    "barriers_global",
    "barriers_intranode",
    "bulk_fragments_delivered",
    "bulk_fragments_sent",
    "bulk_tier_eager",
    "bulk_tier_pipelined",
    "bulk_tier_rendezvous",
    "conn_collisions",
    "conn_evictions",
    "conn_evictions_passive",
    "conn_failures",
    "conn_reply_resends",
    "conn_requests_held",
    "conn_requests_initiated",
    "conn_retransmits",
    "conn_stale_notices_dropped",
    "connection_setup",
    "connections_established",
    "credit_stall_time",
    "credit_stalls",
    "credits_granted",
    "credits_returned",
    "init_barrier",
    "init_other",
    "lazy_registration",
    "memory_registration",
    "mpi_credit_stall_time",
    "mpi_credit_stalls",
    "mpi_matchbox_created",
    "mpi_matchbox_reclaimed",
    "mpi_rdv_recvs",
    "mpi_rdv_sends",
    "mpi_rdv_stale_credits",
    "mpi_recv",
    "mpi_send",
    "pmi_exchange",
    "pmi_wait",
    "qp_created_rc",
    "qp_created_ud",
    "qp_retired_reclaimed",
    "rdv_aborted",
    "rdv_cts_sent",
    "rdv_done",
    "rdv_rts_received",
    "rdv_rts_sent",
    "rdv_stale_cts_dropped",
    "reg_chunk_hits",
    "reg_chunk_misses",
    "reg_dead_grants",
    "reg_deregistrations",
    "reg_evictions",
    "reg_faults_served",
    "reg_pinned_highwater_bytes",
    "reg_rkey_hits",
    "reg_rkey_misses",
    "reg_rkey_races",
    "reg_stale_acks",
    "reg_stale_invalidations",
    "rendezvous_fallbacks",
    "rendezvous_retries",
    "ring_bootstrap_hops",
    "rkey_fault_wait",
    "rma_atomic",
    "rma_atomic_shm",
    "rma_get",
    "rma_get_shm",
    "rma_put",
    "rma_put_shm",
    "rma_rc_time",
    "rma_shm_time",
    "segment_exchange",
    "shared_memory_setup",
    "shm_segment_exchange",
    "shm_segment_exported",
    "shmem_alltoall",
    "shmem_atomic",
    "shmem_barrier_all",
    "shmem_broadcast",
    "shmem_collect",
    "shmem_fcollect",
    "shmem_get",
    "shmem_lock_acquire",
    "shmem_lock_release",
    "shmem_put",
    "shmem_reduce",
    "start_pes_total",
};

inline constexpr std::size_t kStatNameCount = std::size(kStatNames);

static_assert(std::ranges::adjacent_find(kStatNames, std::greater_equal<>{}) ==
                  std::end(kStatNames),
              "kStatNames must be sorted and free of duplicates");

/// Index of `name` in `kStatNames`, or `kStatNameCount` if absent.
constexpr std::size_t find_stat_name(std::string_view name) noexcept {
  const auto* it = std::ranges::lower_bound(kStatNames, name);
  if (it == std::end(kStatNames) || *it != name) return kStatNameCount;
  return static_cast<std::size_t>(it - std::begin(kStatNames));
}

/// `kStatNames[id]` as a `std::string`, built once: the read views yield it so
/// that callers can key a `std::map<std::string, ...>` with it directly.
inline const std::string& stat_name_string(std::size_t id) {
  static const std::vector<std::string> strings(std::begin(kStatNames),
                                                std::end(kStatNames));
  return strings[id];
}

/// A counter or phase name, interned at compile time.
///
///   stats.add("am_sent");                          // converts implicitly
///   stats.add(get ? StatName("rma_get") : StatName("rma_put"));
class StatName {
 public:
  template <std::size_t N>
  consteval StatName(const char (&name)[N])  // NOLINT: implicit by design
      : id_(checked_id(std::string_view(name, N - 1))) {}

  [[nodiscard]] constexpr std::uint16_t id() const noexcept { return id_; }
  [[nodiscard]] constexpr std::string_view view() const noexcept {
    return kStatNames[id_];
  }

 private:
  static consteval std::uint16_t checked_id(std::string_view name) {
    const std::size_t id = find_stat_name(name);
    // Not a constant expression, so an unknown name fails to compile.
    if (id == kStatNameCount) throw "StatName: name missing from kStatNames";
    return static_cast<std::uint16_t>(id);
  }

  std::uint16_t id_;
};

}  // namespace odcm::sim
