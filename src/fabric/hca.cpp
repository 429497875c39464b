#include <algorithm>
#include <stdexcept>

#include "fabric/fabric.hpp"

namespace odcm::fabric {

Hca::Hca(Fabric& fabric, NodeId node, Lid lid)
    : fabric_(fabric), node_(node), lid_(lid) {}

void Hca::attach_pe(RankId rank) {
  for (const auto& entry : srqs_) {
    if (entry.first == rank) {
      throw std::logic_error("Hca::attach_pe: rank already attached");
    }
  }
  srqs_.emplace_back(
      rank, std::make_unique<sim::Mailbox<RcMessage>>(fabric_.engine()));
}

sim::Task<QueuePair*> Hca::create_qp(QpType type, RankId owner) {
  co_await fabric_.engine().delay(fabric_.config().qp_create_cost);
  co_return &add_qp(type, owner);
}

QueuePair& Hca::materialize_qp(QpType type, RankId owner) {
  return add_qp(type, owner);
}

QueuePair& Hca::add_qp(QpType type, RankId owner) {
  Qpn qpn = next_qpn_++;
  qps_.push_back(std::make_unique<QueuePair>(*this, qpn, type, owner));
  ++qps_created_;
  ++qps_live_;
  return *qps_.back();
}

sim::Task<> Hca::destroy_qp(Qpn qpn) {
  QueuePair* qp = find_qp(qpn);
  if (qp == nullptr) {
    throw std::logic_error("Hca::destroy_qp: unknown qpn");
  }
  if (qp->outstanding() != 0) {
    throw std::logic_error(
        "Hca::destroy_qp: QP has outstanding work (owner rank " +
        std::to_string(qp->owner()) + ", type " +
        std::to_string(static_cast<int>(qp->type())) + ", outstanding " +
        std::to_string(qp->outstanding()) + ")");
  }
  return destroy_qp_impl(qpn);
}

sim::Task<> Hca::destroy_qp_impl(Qpn qpn) {
  sim::Time done = reserve_command_window(fabric_.config().qp_destroy_cost);
  co_await fabric_.engine().delay(done - fabric_.engine().now());
  if (qps_[qpn - 1] != nullptr) {
    qps_[qpn - 1].reset();
    --qps_live_;
  }
}

sim::Task<MemoryRegion> Hca::register_memory(AddressSpace& space,
                                             VirtAddr start, std::uint64_t len,
                                             std::uint64_t modeled_len) {
  if (!space.contains(start, len)) {
    throw std::out_of_range("Hca::register_memory: range outside space");
  }
  return register_memory_impl(space, start, len, modeled_len);
}

sim::Task<MemoryRegion> Hca::register_memory_impl(AddressSpace& space,
                                                  VirtAddr start,
                                                  std::uint64_t len,
                                                  std::uint64_t modeled_len) {
  const auto& cfg = fabric_.config();
  std::uint64_t cost_len = modeled_len != 0 ? modeled_len : len;
  std::uint64_t pages = (cost_len + cfg.page_size - 1) / cfg.page_size;
  co_await fabric_.engine().delay(cfg.mem_reg_base_cost +
                                  pages * cfg.mem_reg_per_page_cost);
  RKey rkey = next_rkey_++;
  regions_.emplace(rkey, Region{&space, start, len});
  co_return MemoryRegion{start, len, rkey};
}

void Hca::deregister_memory(RKey rkey) {
  if (regions_.erase(rkey) == 0) {
    throw std::logic_error("Hca::deregister_memory: unknown rkey");
  }
}

std::optional<std::span<std::byte>> Hca::resolve(VirtAddr raddr, RKey rkey,
                                                 std::size_t len) {
  auto it = regions_.find(rkey);
  if (it == regions_.end()) return std::nullopt;
  const Region& region = it->second;
  if (raddr < region.start || raddr + len > region.start + region.len) {
    return std::nullopt;
  }
  return region.space->window(raddr, len);
}

sim::Mailbox<RcMessage>& Hca::srq(RankId rank) {
  for (const auto& entry : srqs_) {
    if (entry.first == rank) return *entry.second;
  }
  throw std::logic_error("Hca::srq: rank not attached to this HCA");
}

sim::Time Hca::reserve_injection_slot() {
  sim::Time now = fabric_.engine().now();
  sim::Time slot = std::max(now, next_injection_);
  next_injection_ = slot + fabric_.config().min_packet_gap;
  return slot;
}

sim::Time Hca::reserve_command_window(sim::Time busy) {
  sim::Time start = std::max(fabric_.engine().now(), command_free_);
  command_free_ = start + busy;
  return command_free_;
}

sim::Time Hca::cache_penalty() const noexcept {
  const auto& cfg = fabric_.config();
  return qps_live_ > cfg.hca_cache_qps ? cfg.cache_miss_penalty : 0;
}

}  // namespace odcm::fabric
