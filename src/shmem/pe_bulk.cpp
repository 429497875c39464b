// Large-message protocol tiers: the shmem-side glue of the rendezvous
// (RTS/CTS) path and its composition with on-demand registration
// (DESIGN.md §5.17).
//
// Roles per PE:
//  * target — serves the conduit's rendezvous sink: maps an incoming RTS
//    (VA, len) to the set of postable ranges. Under eager registration
//    that is one range covering the whole request with the heap rkey;
//    under on-demand registration the RTS acts as a batched rkey fault —
//    every cold chunk it touches is pinned (sharing the pin cap, LRU and
//    drain machinery of the ordinary fault path) before the CTS goes out.
//  * initiator — installs the CTS rkey set into its `RkeyTable` and holds
//    one `RkeyLease` per chunk across the whole fragment stream, so a
//    racing invalidation defers its ack (and the target's deregistration)
//    until the last fragment completed. A CTS whose rkey was already
//    tombstoned aborts the transfer before any data moves; the initiator
//    simply re-issues the RTS, which re-pins the chunk at the target.
#include <algorithm>
#include <stdexcept>
#include <vector>

#include "fabric/reg/registration_cache.hpp"
#include "fabric/reg/rkey_table.hpp"
#include "shmem/job.hpp"
#include "shmem/pe.hpp"

namespace odcm::shmem {

using core::ProtocolEvent;
using core::RdvOp;
using core::RdvRange;
using fabric::reg::RkeyLease;

namespace {
/// Dead-grant retries before degrading to the per-chunk fragmented path.
/// A transfer spanning more chunks than `reg_pinned_max_bytes` can hold at
/// once evicts its own earliest chunk while the sink resolves, so the
/// invalidation beats the CTS on every attempt — retrying forever would
/// livelock. The per-chunk path pins one chunk at a time and always fits.
constexpr int kRdvMaxRetries = 4;
}  // namespace

void ShmemPe::bulk_init() {
  conduit_.set_rendezvous_sink(
      [this](RankId src, RdvOp op, fabric::VirtAddr raddr,
             std::uint64_t len) -> sim::Task<std::vector<RdvRange>> {
        return bulk_sink(src, op, raddr, len);
      });
}

// ---- target side ---------------------------------------------------------

sim::Task<std::vector<RdvRange>> ShmemPe::bulk_sink(RankId src, RdvOp op,
                                                    fabric::VirtAddr raddr,
                                                    std::uint64_t len) {
  (void)op;  // puts and gets post identical sinks; only direction differs
  const fabric::VirtAddr base = heap_space_.base();
  const std::uint64_t size = config().heap_bytes;
  if (raddr < base || len > size || raddr - base > size - len) {
    throw std::out_of_range("ShmemPe: rendezvous RTS outside symmetric heap");
  }
  std::vector<RdvRange> ranges;
  if (!reg_on_demand()) {
    ranges.push_back({raddr, len, heap_region_.rkey});
    co_return ranges;
  }
  // On-demand registration: the RTS doubles as a batched rkey fault. Pin
  // every chunk the transfer touches; `acquire` coalesces with concurrent
  // faults and records `src` as a sharer for future invalidation drains.
  const std::uint64_t chunk_bytes = config().reg_chunk_bytes;
  std::uint64_t off = raddr - base;
  const std::uint64_t end = off + len;
  while (off < end) {
    auto chunk = static_cast<std::uint32_t>(off / chunk_bytes);
    std::uint64_t take = std::min<std::uint64_t>(
        end - off, (chunk + 1) * chunk_bytes - off);
    fabric::MemoryRegion region = co_await reg_cache_->acquire(chunk, src);
    ranges.push_back({base + off, take, region.rkey});
    off += take;
  }
  co_return ranges;
}

// ---- initiator side ------------------------------------------------------

bool ShmemPe::bulk_accept_ranges(RankId dst,
                                 const std::vector<RdvRange>& ranges,
                                 std::vector<RkeyLease>& leases) {
  const std::uint64_t chunk_bytes = config().reg_chunk_bytes;
  for (const RdvRange& r : ranges) {
    auto chunk = static_cast<std::uint32_t>(
        (r.va - fabric::make_va_base(dst)) / chunk_bytes);
    if (!rkey_table_->install(dst, chunk, r.rkey)) {
      // The CTS raced an invalidation notice for the same rkey; the
      // tombstone wins. Abort before any fragment is issued — the caller
      // drops the leases taken so far and re-issues the RTS.
      stats().add("reg_dead_grants");
      return false;
    }
    leases.emplace_back(*rkey_table_, dst, chunk);
    reg_report(ProtocolEvent::Kind::kRegRkeyUsed, dst, chunk, r.rkey);
  }
  return true;
}

sim::Task<> ShmemPe::bulk_rendezvous(RankId dst, SymAddr addr,
                                     fabric::RmaRequest wr) {
  const fabric::VirtAddr va = fabric::make_va_base(dst) + addr;
  if (!reg_on_demand()) {
    if (!co_await conduit_.rendezvous(dst, va, wr)) {
      throw std::runtime_error("ShmemPe: rendezvous aborted");
    }
    co_return;
  }
  for (int attempt = 0; attempt < kRdvMaxRetries; ++attempt) {
    std::vector<RkeyLease> leases;
    bool ok = co_await conduit_.rendezvous(
        dst, va, wr,
        [this, dst, &leases](const std::vector<RdvRange>& ranges) {
          return bulk_accept_ranges(dst, ranges, leases);
        });
    leases.clear();
    if (ok) co_return;
    stats().add("rendezvous_retries");
  }
  stats().add("rendezvous_fallbacks");
  // Fragments that fail throw, so the per-chunk path completes or throws.
  (void)co_await reg_rma(dst, addr, wr, /*fragmented=*/true);
}

}  // namespace odcm::shmem
