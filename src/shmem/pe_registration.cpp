// On-demand memory registration: the shmem-side glue of the rkey-fault
// protocol (DESIGN.md §5.15).
//
// Roles per PE:
//  * target  — owns a `fabric::reg::RegistrationCache` over its symmetric
//    heap; serves rkey faults (registering chunks lazily) and runs the
//    epoch-guarded invalidation drain when the LRU pin cap evicts a chunk.
//  * initiator — keeps granted rkeys in a `fabric::reg::RkeyTable`; splits
//    RC RMAs at chunk boundaries and faults cold chunks in on first use.
//
// Safety argument for eviction (mirrors the conduit's disconnect notices):
// the target defers `deregister_memory` until every sharer acked the
// invalidation, and each initiator defers its ack until the lease count of
// the dying rkey drains to zero — a lease spans resolve..completion of one
// RMA, so by the time the last ack is sent every RMA that ever resolved
// the rkey has completed at the target. A use-after-deregistration is
// therefore impossible by construction; `check::InvariantChecker` verifies
// it anyway from the kReg* event stream.
#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/wire.hpp"
#include "fabric/reg/registration_cache.hpp"
#include "fabric/reg/rkey_table.hpp"
#include "shmem/job.hpp"
#include "shmem/pe.hpp"

namespace odcm::shmem {

using core::ProtocolEvent;
using core::RegMsgType;
using core::RegPacket;
using fabric::reg::RegCacheConfig;
using fabric::reg::RegEvent;
using fabric::reg::RegistrationCache;
using fabric::reg::RkeyLease;
using fabric::reg::RkeyTable;

bool ShmemPe::reg_on_demand() const noexcept {
  return config().registration == RegistrationMode::kOnDemand;
}

void ShmemPe::reg_report(ProtocolEvent::Kind kind, RankId peer,
                         std::uint32_t chunk, std::uint64_t rkey) {
  ProtocolEvent event;
  event.kind = kind;
  event.peer = peer;
  event.attempt = chunk;
  event.detail = rkey;
  conduit_.report_event(event);
}

void ShmemPe::reg_init() {
  const ShmemConfig& cfg = config();
  RegCacheConfig rc;
  rc.chunk_bytes = cfg.reg_chunk_bytes;
  rc.pinned_max_bytes = cfg.reg_pinned_max_bytes;
  rc.modeled_bytes =
      cfg.modeled_heap_bytes != 0
          ? std::max(cfg.modeled_heap_bytes, cfg.heap_bytes)
          : 0;
  reg_cache_ = std::make_unique<RegistrationCache>(conduit_.hca(), heap_space_,
                                                   rc, stats());
  rkey_table_ = std::make_unique<RkeyTable>(engine());

  reg_cache_->set_event_fn([this](RegEvent event, std::uint32_t chunk,
                                  fabric::RKey rkey, RankId peer) {
    switch (event) {
      case RegEvent::kPinned:
        reg_report(ProtocolEvent::Kind::kRegChunkPinned, peer, chunk, rkey);
        break;
      case RegEvent::kEvicted:
        reg_report(ProtocolEvent::Kind::kRegChunkEvicted, peer, chunk, rkey);
        break;
      case RegEvent::kDeregistered:
        reg_report(ProtocolEvent::Kind::kRegChunkDeregistered, peer, chunk,
                   rkey);
        break;
    }
  });
  reg_cache_->set_invalidate_fn(
      [this](std::uint32_t chunk, fabric::RKey rkey,
             std::vector<RankId> sharers) -> sim::Task<> {
        RegPacket notice{RegMsgType::kInvalidate, chunk, rkey};
        std::vector<std::byte> bytes = notice.encode();
        for (RankId sharer : sharers) {
          co_await conduit_.am_send(sharer, core::kShmemRegHandler, bytes);
        }
      });
  conduit_.register_handler(
      core::kShmemRegHandler,
      [this](RankId src, std::vector<std::byte> payload) -> sim::Task<> {
        return handle_reg_message(src, std::move(payload));
      });
}

sim::Task<> ShmemPe::reg_quiesce() { return reg_cache_->quiesce(); }

// ---- handshake piggyback ------------------------------------------------

std::vector<std::byte> ShmemPe::reg_piggyback_payload(RankId peer) {
  // Segment triplet (rkey 0: "fault for it") followed by the hot-chunk
  // table: u32 count, then count × (u32 chunk, u64 rkey). Handing a chunk
  // out makes `peer` a sharer — it must see any later invalidation.
  std::vector<std::byte> out = job_.segment(rank_).serialize();
  std::size_t count_pos = out.size();
  core::wire::put_int<std::uint32_t>(out, 0);
  std::uint32_t count = 0;
  reg_cache_->for_each_pinned([&](std::uint32_t chunk, fabric::RKey rkey) {
    core::wire::put_int<std::uint32_t>(out, chunk);
    core::wire::put_int<std::uint64_t>(out, rkey);
    reg_cache_->add_sharer(chunk, peer);
    ++count;
  });
  std::memcpy(out.data() + count_pos, &count, sizeof(count));
  return out;
}

void ShmemPe::reg_consume_payload(RankId peer,
                                  std::span<const std::byte> payload) {
  learn_segment(peer, payload);
  core::wire::Reader reader(payload.subspan(24));
  auto count = reader.read_int<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    auto chunk = reader.read_int<std::uint32_t>();
    auto rkey = reader.read_int<std::uint64_t>();
    if (!rkey_table_->install(peer, chunk, rkey)) {
      // The handshake payload raced an invalidation notice (lossy UD can
      // deliver a cached reply arbitrarily late); the tombstone wins.
      stats().add("reg_dead_grants");
    }
  }
  reader.expect_end();
}

// ---- protocol messages --------------------------------------------------

sim::Task<> ShmemPe::handle_reg_message(RankId src,
                                        std::vector<std::byte> payload) {
  RegPacket packet = RegPacket::decode(payload);
  switch (packet.type) {
    case RegMsgType::kFaultRequest: {
      stats().add("reg_faults_served");
      fabric::MemoryRegion region =
          co_await reg_cache_->acquire(packet.chunk, src);
      RegPacket reply{RegMsgType::kFaultReply, packet.chunk, region.rkey};
      co_await conduit_.am_send(src, core::kShmemRegHandler, reply.encode());
      break;
    }
    case RegMsgType::kFaultReply: {
      if (rkey_table_->install(src, packet.chunk, packet.rkey)) {
        reg_report(ProtocolEvent::Kind::kRegFaultServed, src, packet.chunk,
                   packet.rkey);
      } else {
        stats().add("reg_dead_grants");
      }
      break;
    }
    case RegMsgType::kInvalidate: {
      if (rkey_table_->invalidate(src, packet.chunk, packet.rkey)) {
        reg_report(ProtocolEvent::Kind::kRegRkeyInvalidated, src,
                   packet.chunk, packet.rkey);
        // Hold the ack until every RMA that resolved this rkey completed:
        // the target deregisters only after all acks, so an acked rkey can
        // never be used again.
        co_await rkey_table_->wait_unleased(src, packet.chunk);
      } else {
        stats().add("reg_stale_invalidations");
      }
      RegPacket ack{RegMsgType::kInvalidateAck, packet.chunk, packet.rkey};
      co_await conduit_.am_send(src, core::kShmemRegHandler, ack.encode());
      break;
    }
    case RegMsgType::kInvalidateAck:
      reg_cache_->on_invalidate_ack(packet.chunk, packet.rkey, src);
      break;
  }
}

// ---- initiator data path ------------------------------------------------

sim::Task<fabric::RKey> ShmemPe::reg_rkey(RankId dst, std::uint32_t chunk) {
  for (;;) {
    fabric::RKey rkey = rkey_table_->rkey(dst, chunk);
    if (rkey != 0) {
      stats().add("reg_rkey_hits");
      co_return rkey;
    }
    if (rkey_table_->fault_in_flight(dst, chunk)) {
      // Coalesce: another RMA already faulted this chunk; park until its
      // reply lands, then re-check (the grant may have died to a racing
      // invalidation, in which case we fault again).
      co_await rkey_table_->wait_fault(dst, chunk);
      continue;
    }
    rkey_table_->begin_fault(dst, chunk);
    stats().add("reg_rkey_misses");
    reg_report(ProtocolEvent::Kind::kRegFault, dst, chunk, 0);
    sim::Time t0 = engine().now();
    RegPacket fault{RegMsgType::kFaultRequest, chunk, 0};
    try {
      co_await conduit_.am_send(dst, core::kShmemRegHandler, fault.encode());
    } catch (...) {
      rkey_table_->abort_fault(dst, chunk);
      throw;
    }
    co_await rkey_table_->wait_fault(dst, chunk);
    stats().add_time("rkey_fault_wait", engine().now() - t0);
  }
}

sim::Task<fabric::Completion> ShmemPe::reg_rma(RankId dst, SymAddr addr,
                                               fabric::RmaRequest wr,
                                               bool fragmented) {
  const std::uint64_t chunk_bytes = config().reg_chunk_bytes;
  const std::size_t len = wr.length();
  fabric::Completion wc;
  std::size_t offset = 0;
  while (offset < len) {
    SymAddr at = addr + offset;
    auto chunk = static_cast<std::uint32_t>(at / chunk_bytes);
    std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(len - offset, (chunk + 1) * chunk_bytes - at));
    // The symmetric heap lives at a rank-deterministic base on every PE, so
    // the initiator can name remote chunks before any segment-info exchange
    // — the whole point of faulting rkeys in lazily.
    const fabric::VirtAddr va = fabric::make_va_base(dst) + at;
    const fabric::RmaRequest part = wr.slice(offset, take);
    for (;;) {
      fabric::RKey rkey = co_await reg_rkey(dst, chunk);
      RkeyLease lease(*rkey_table_, dst, chunk);
      fabric::QueuePair* qp = co_await conduit_.connected_qp(dst);
      if (rkey_table_->rkey(dst, chunk) != rkey) {
        // An invalidation notice landed while we waited for the connection.
        // Dropping the lease lets the deferred ack proceed; resolve afresh.
        stats().add("reg_rkey_races");
        continue;
      }
      reg_report(ProtocolEvent::Kind::kRegRkeyUsed, dst, chunk, rkey);
      if (fragmented) {
        // Pipelined tier: stream this chunk's bytes through the conduit's
        // bounded-window fragmenter. The lease is held across the whole
        // stream, so a racing invalidation defers its ack (and the
        // target's deregistration) until every fragment completed.
        co_await conduit_.fragmented(dst, va, rkey, part);
      } else {
        wc = co_await qp->post(va, rkey, part);
      }
      lease.release();
      break;
    }
    if (!wc.ok()) co_return wc;
    offset += take;
  }
  co_return wc;
}

}  // namespace odcm::shmem
