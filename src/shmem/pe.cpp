// ShmemPe: initialization paths, remote memory access, atomics, ordering.
#include <cstring>
#include <stdexcept>
#include <utility>

#include "fabric/reg/registration_cache.hpp"
#include "fabric/reg/rkey_table.hpp"
#include "shmem/job.hpp"
#include "shmem/pe.hpp"

namespace odcm::shmem {

using core::kShmemCollDataHandler;
using core::kShmemSegInfoHandler;

ShmemPe::ShmemPe(ShmemJob& job, RankId rank)
    : job_(job),
      rank_(rank),
      conduit_(job.conduit_job().conduit(rank)),
      heap_space_(rank, fabric::make_va_base(rank),
                  job.shmem_config().heap_bytes),
      allocator_(job.shmem_config().heap_bytes),
      segments_(job.n_pes()) {}

ShmemPe::~ShmemPe() = default;

std::uint32_t ShmemPe::n_pes() const noexcept {
  return job_.conduit_job().ranks();
}

sim::Engine& ShmemPe::engine() noexcept { return conduit_.engine(); }

const ShmemConfig& ShmemPe::config() const noexcept {
  return job_.shmem_config();
}

// ---- lifecycle ----

sim::Task<> ShmemPe::start_pes() {
  if (initialized_) {
    throw std::logic_error("ShmemPe::start_pes: already initialized");
  }
  sim::Engine& eng = engine();
  sim::StatSet& st = stats();
  const ShmemConfig& cfg = config();
  const sim::Time t0 = eng.now();

  puts_drained_ = std::make_unique<sim::Trigger>(eng);
  conduit_.register_handler(
      kShmemCollDataHandler,
      [this](RankId src, std::vector<std::byte> payload) -> sim::Task<> {
        return handle_coll_data(src, std::move(payload));
      });
  conduit_.register_handler(
      kShmemSegInfoHandler,
      [this](RankId src, std::vector<std::byte> payload) -> sim::Task<> {
        learn_segment(src, payload);
        if (++segments_received_ == n_pes() - 1 && segments_gate_) {
          segments_gate_->open();
        }
        co_return;
      });

  {
    sim::PhaseTimer timer(eng, st, "shared_memory_setup");
    std::uint32_t local_pes =
        job_.conduit_job().ranks_on_node(conduit_.node());
    co_await eng.delay(cfg.shared_memory_base +
                       cfg.shared_memory_per_pe * local_pes);
  }

  {
    sim::PhaseTimer timer(eng, st, "memory_registration");
    if (cfg.registration == RegistrationMode::kEager) {
      // Whole-heap pin during init. The *modeled* heap size (DESIGN.md §2)
      // is charged inside the HCA cost model, the single place both this
      // path and the chunked on-demand path price registration.
      std::uint64_t modeled = std::max(
          cfg.modeled_heap_bytes != 0 ? cfg.modeled_heap_bytes
                                      : cfg.heap_bytes,
          cfg.heap_bytes);
      heap_region_ = co_await conduit_.hca().register_memory(
          heap_space_, heap_space_.base(), heap_space_.size(), modeled);
      publish_segment(SegmentInfo{heap_region_.addr, heap_region_.size,
                                  heap_region_.rkey});
    } else {
      // On-demand: nothing is pinned yet. Peers learn the heap geometry
      // (rkey 0 = "fault for it") and chunks register lazily on first
      // remote access (DESIGN.md §5.15).
      reg_init();
      publish_segment(SegmentInfo{heap_space_.base(), heap_space_.size(), 0});
    }
  }

  // Rendezvous target hook: maps an incoming RTS to postable sink ranges
  // (whole-heap rkey under eager registration, per-chunk pin faults under
  // on-demand). A plain std::function install — no events, so the default
  // (tiering-off) trace is unchanged.
  bulk_init();

  const bool on_demand =
      conduit_.config().connection_mode == core::ConnectionMode::kOnDemand;
  if (on_demand) {
    // Proposed design: the segment triplet rides on the connection
    // request/reply packets (paper §IV-C). Under on-demand registration
    // the payload additionally carries the hot-chunk rkey table.
    if (reg_on_demand()) {
      conduit_.set_payload_hooks(
          [this](RankId peer) { return reg_piggyback_payload(peer); },
          [this](RankId peer, std::span<const std::byte> payload) {
            reg_consume_payload(peer, payload);
          });
    } else {
      conduit_.set_payload_hooks(
          [this](RankId) { return job_.segment(rank_).serialize(); },
          [this](RankId peer, std::span<const std::byte> payload) {
            learn_segment(peer, payload);
          });
    }
  }

  co_await conduit_.init();
  conduit_.set_ready();

  if (conduit_.config().intranode_transport == core::IntranodeTransport::kShm) {
    // Shm transport: cross-map this PE's heap into the node's shared
    // domain and pick up same-node peers' segment triplets through the
    // node-local exchange — no UD handshake, no piggybacked rkey involved
    // (DESIGN.md §5.14). The intra-node barrier guarantees every local
    // peer has registered and exported before we learn its triplet.
    sim::PhaseTimer timer(eng, st, "shm_segment_exchange");
    co_await conduit_.shm_export(heap_space_, heap_space_.base(),
                                 heap_space_.size());
    co_await conduit_.barrier_intranode();
    const core::ConduitJob& cj = job_.conduit_job();
    for (RankId r = 0; r < n_pes(); ++r) {
      if (r != rank_ && cj.node_of(r) == conduit_.node()) {
        segments_.insert(r);
      }
    }
  }

  if (!on_demand) {
    // Current design: after the static mesh is up, every PE sends its
    // triplet to every other PE over active messages (inefficiency #2 in
    // paper §IV-B).
    sim::PhaseTimer timer(eng, st, "segment_exchange");
    co_await broadcast_am_segments();
  }

  {
    sim::PhaseTimer timer(eng, st, "init_barrier");
    co_await conduit_.barrier_init();
    co_await conduit_.barrier_init();
  }

  {
    sim::PhaseTimer timer(eng, st, "init_other");
    co_await eng.delay(cfg.init_misc);
  }

  st.add_time("start_pes_total", eng.now() - t0);
  initialized_ = true;
}

sim::Task<> ShmemPe::broadcast_am_segments() {
  const std::uint32_t n = n_pes();
  if (n == 1) co_return;
  if (n > conduit_.config().bulk_connect_threshold) {
    // Bulk path: charge the per-PE cost of sending N-1 small AMs and learn
    // every triplet at once (every PE registered before the PMI fence
    // inside conduit init, so the directory is complete).
    const fabric::FabricConfig& fcfg = job_.conduit_job().fabric().config();
    co_await engine().delay(
        (n - 1) * (fcfg.hca_tx_overhead + fcfg.min_packet_gap));
    segments_.insert_all();
    co_return;
  }
  segments_gate_ = std::make_unique<sim::Gate>(engine());
  if (segments_received_ == n - 1) {
    segments_gate_->open();
  }
  std::vector<std::byte> mine = job_.segment(rank_).serialize();
  for (RankId r = 0; r < n; ++r) {
    if (r != rank_) {
      co_await conduit_.am_send(r, kShmemSegInfoHandler, mine);
    }
  }
  co_await segments_gate_->wait();
}

sim::Task<> ShmemPe::finalize() {
  if (!initialized_) {
    throw std::logic_error("ShmemPe::finalize: not initialized");
  }
  // Proper termination needs a full barrier even for communication-free
  // programs (paper §V-B) — in on-demand mode this is where Hello World
  // pays for its few tree connections.
  co_await quiet();
  if (reg_cache_ != nullptr) {
    // Let any in-flight registration drain settle while every peer's AM
    // listener is still guaranteed to be serving (pre-barrier).
    co_await reg_quiesce();
  }
  co_await conduit_.barrier_global();
  initialized_ = false;
}

// ---- addressing ----

std::span<std::byte> ShmemPe::local_window(SymAddr addr, std::size_t len) {
  return heap_space_.window(heap_space_.base() + addr, len);
}

const SegmentInfo& ShmemPe::peer_segment(RankId dst) {
  if (!segments_.contains(dst)) {
    throw std::logic_error("ShmemPe: no segment info for peer " +
                           std::to_string(dst));
  }
  return job_.segment(dst);
}

void ShmemPe::publish_segment(SegmentInfo info) {
  job_.segment_directory_[rank_] = info;
  segments_.insert(rank_);
}

void ShmemPe::learn_segment(RankId peer, std::span<const std::byte> bytes) {
  if (SegmentInfo::deserialize(bytes) != job_.segment(peer)) {
    throw std::logic_error("ShmemPe: segment info received from peer " +
                           std::to_string(peer) +
                           " differs from the one it published");
  }
  segments_.insert(peer);
}

std::pair<fabric::VirtAddr, fabric::RKey> ShmemPe::remote_addr(
    RankId dst, SymAddr addr) {
  const SegmentInfo& segment = peer_segment(dst);
  return {segment.addr + addr, segment.rkey};
}

// ---- RMA routers (DESIGN.md §5.20) ----

void ShmemPe::check_access(const char* op, SymAddr addr,
                           std::size_t len) const {
  if (!initialized_) {
    throw std::logic_error(std::string("ShmemPe::") + op +
                           ": called outside start_pes()..finalize()");
  }
  // Every PE's heap has the same size, so one check against the config
  // covers self, shm, segment-info and rank-deterministic addressing. It
  // is written so that `addr + len` cannot wrap around.
  const std::uint64_t size = config().heap_bytes;
  if (len != 0 && (len > size || addr > size - len)) {
    throw std::out_of_range(std::string("ShmemPe::") + op +
                            ": symmetric address out of heap");
  }
}

sim::Task<> ShmemPe::rma(const char* op, RankId dst, SymAddr addr,
                         fabric::RmaRequest wr) {
  check_access(op, addr, wr.length());
  return route_rma(op, dst, addr, wr);
}

sim::Task<> ShmemPe::route_rma(const char* op, RankId dst, SymAddr addr,
                               fabric::RmaRequest wr) {
  const std::size_t len = wr.length();
  stats().add(wr.is_get() ? sim::StatName("shmem_get")
                           : sim::StatName("shmem_put"));
  if (len == 0) {
    // Zero-length transfers are complete no-ops (OpenSHMEM 1.4 §9.3): no
    // connection, no registration fault, no credit, no modeled latency.
    co_return;
  }
  if (dst == rank_) {
    (void)co_await local_rma(addr, wr);
    co_return;
  }
  fabric::Completion wc;
  if (conduit_.shm_routes(dst)) {
    // Same-node peer over the shm transport: CMA-style copy into the
    // cross-mapped segment; resolution is by rank, no rkey involved.
    auto [va, rkey] = remote_addr(dst, addr);
    wc = co_await conduit_.rma(dst, va, rkey, wr);
  } else {
    const core::BulkTier tier = conduit_.select_tier(len);
    if (conduit_.config().tiering_enabled()) {
      switch (tier) {
        case core::BulkTier::kEager: stats().add("bulk_tier_eager"); break;
        case core::BulkTier::kPipelined:
          stats().add("bulk_tier_pipelined");
          break;
        case core::BulkTier::kRendezvous:
          stats().add("bulk_tier_rendezvous");
          break;
      }
    }
    if (tier == core::BulkTier::kRendezvous) {
      co_await bulk_rendezvous(dst, addr, wr);
      co_return;
    }
    if (reg_on_demand()) {
      wc = co_await reg_rma(dst, addr, wr,
                            tier == core::BulkTier::kPipelined);
    } else if (tier == core::BulkTier::kPipelined) {
      // Segment info may ride the connection handshake; establish first.
      (void)co_await conduit_.connected_qp(dst);
      auto [va, rkey] = remote_addr(dst, addr);
      co_await conduit_.fragmented(dst, va, rkey, wr);
      co_return;
    } else {
      fabric::QueuePair* qp = co_await conduit_.connected_qp(dst);
      auto [va, rkey] = remote_addr(dst, addr);
      std::optional<std::uint32_t> credit;
      while (true) {
        credit = co_await conduit_.acquire_credit(dst);
        if (credit) break;
        // Connection torn down while stalled on credits; re-establish.
        qp = co_await conduit_.connected_qp(dst);
      }
      wc = co_await qp->post(va, rkey, wr);
      conduit_.release_credit(dst, *credit);
    }
  }
  if (!wc.ok()) {
    throw std::runtime_error(std::string("ShmemPe::") + op +
                             ": remote access failed");
  }
}

void ShmemPe::rma_nbi(const char* op, RankId dst, SymAddr addr,
                      fabric::RmaRequest wr) {
  // `wr.src` points into `owned` from here on: moving the vector into the
  // spawned frame below keeps its buffer where it is.
  std::vector<std::byte> owned(wr.src.begin(), wr.src.end());
  wr.src = owned;
  sim::Task<> transfer = rma(op, dst, addr, wr);
  ++pending_puts_;
  engine().spawn([](ShmemPe& pe, std::vector<std::byte> /*source*/,
                    sim::Task<> transfer) -> sim::Task<> {
    co_await transfer;
    if (--pe.pending_puts_ == 0) {
      pe.puts_drained_->notify_all();
    }
  }(*this, std::move(owned), std::move(transfer)));
}

sim::Task<std::uint64_t> ShmemPe::atomic(const char* op, RankId dst,
                                         SymAddr addr, fabric::WcOpcode opcode,
                                         std::uint64_t operand,
                                         std::uint64_t compare) {
  check_access(op, addr, sizeof(std::uint64_t));
  // Natural alignment keeps an atomic inside one registration chunk and
  // one cache line, whatever the transport and registration mode.
  if (addr % sizeof(std::uint64_t) != 0) {
    throw std::invalid_argument(std::string("ShmemPe::") + op +
                                ": address is not 8-byte aligned");
  }
  return route_atomic(op, dst, addr,
                      fabric::RmaRequest::atomic(opcode, operand, compare));
}

sim::Task<std::uint64_t> ShmemPe::route_atomic(const char* op, RankId dst,
                                               SymAddr addr,
                                               fabric::RmaRequest wr) {
  stats().add("shmem_atomic");
  if (dst == rank_) {
    co_return co_await local_rma(addr, wr);
  }
  fabric::Completion wc;
  if (conduit_.shm_routes(dst)) {
    auto [va, rkey] = remote_addr(dst, addr);
    wc = co_await conduit_.rma(dst, va, rkey, wr);
  } else if (reg_on_demand()) {
    wc = co_await reg_rma(dst, addr, wr, /*fragmented=*/false);
  } else {
    fabric::QueuePair* qp = co_await conduit_.connected_qp(dst);
    auto [va, rkey] = remote_addr(dst, addr);
    wc = co_await qp->post(va, rkey, wr);
  }
  if (!wc.ok()) {
    throw std::runtime_error(std::string("ShmemPe::") + op +
                             ": remote atomic failed");
  }
  co_return wc.atomic_old;
}

sim::Task<std::uint64_t> ShmemPe::local_rma(SymAddr addr,
                                            fabric::RmaRequest wr) {
  const ShmemConfig& cfg = config();
  sim::Time cost = cfg.local_copy_latency;
  if (!wr.is_atomic()) {
    cost += static_cast<sim::Time>(static_cast<double>(wr.length()) /
                                   cfg.local_bytes_per_ns);
  }
  co_await engine().delay(cost);
  co_return fabric::execute(wr, local_window(addr, wr.length()));
}

// ---- remote memory access (public API) ----

sim::Task<> ShmemPe::put(RankId dst, SymAddr dest,
                         std::span<const std::byte> data) {
  return rma("put", dst, dest, fabric::RmaRequest::write(data));
}

void ShmemPe::put_nbi(RankId dst, SymAddr dest,
                      std::span<const std::byte> data) {
  rma_nbi("put_nbi", dst, dest, fabric::RmaRequest::write(data));
}

sim::Task<> ShmemPe::get(RankId dst, SymAddr src, std::span<std::byte> dest) {
  return rma("get", dst, src, fabric::RmaRequest::read(dest));
}

void ShmemPe::get_nbi(RankId dst, SymAddr src, std::span<std::byte> dest) {
  // Shares the outstanding-op counter with put_nbi: shmem_quiet completes
  // both kinds (OpenSHMEM 1.3 §9.8).
  rma_nbi("get_nbi", dst, src, fabric::RmaRequest::read(dest));
}

sim::Task<std::uint64_t> ShmemPe::atomic_fetch_add(RankId dst, SymAddr addr,
                                                   std::uint64_t v) {
  return atomic("atomic_fetch_add", dst, addr, fabric::WcOpcode::kFetchAdd,
                v, 0);
}

sim::Task<std::uint64_t> ShmemPe::atomic_fetch_inc(RankId dst, SymAddr addr) {
  return atomic("atomic_fetch_inc", dst, addr, fabric::WcOpcode::kFetchAdd,
                1, 0);
}

sim::Task<> ShmemPe::atomic_add(RankId dst, SymAddr addr, std::uint64_t v) {
  (void)co_await atomic("atomic_add", dst, addr, fabric::WcOpcode::kFetchAdd,
                        v, 0);
}

sim::Task<> ShmemPe::atomic_inc(RankId dst, SymAddr addr) {
  (void)co_await atomic("atomic_inc", dst, addr, fabric::WcOpcode::kFetchAdd,
                        1, 0);
}

sim::Task<std::uint64_t> ShmemPe::atomic_swap(RankId dst, SymAddr addr,
                                              std::uint64_t v) {
  return atomic("atomic_swap", dst, addr, fabric::WcOpcode::kSwap, v, 0);
}

sim::Task<std::uint64_t> ShmemPe::atomic_compare_swap(RankId dst, SymAddr addr,
                                                      std::uint64_t expect,
                                                      std::uint64_t desired) {
  return atomic("atomic_compare_swap", dst, addr,
                fabric::WcOpcode::kCompareSwap, desired, expect);
}

// ---- strided transfers / local pointers ----

void ShmemPe::iput(RankId dst, SymAddr dest, std::span<const std::byte> data,
                   std::uint32_t dst_stride, std::uint32_t src_stride,
                   std::uint32_t elem, std::uint32_t nelems) {
  check_access("iput", dest, 0);
  if (dst_stride == 0 || src_stride == 0 || elem == 0) {
    throw std::invalid_argument("ShmemPe::iput: zero stride or element");
  }
  if (static_cast<std::uint64_t>(nelems - 1) * src_stride * elem + elem >
          data.size() &&
      nelems > 0) {
    throw std::out_of_range("ShmemPe::iput: source too small");
  }
  for (std::uint32_t k = 0; k < nelems; ++k) {
    rma_nbi("iput", dst,
            dest + static_cast<std::uint64_t>(k) * dst_stride * elem,
            fabric::RmaRequest::write(data.subspan(
                static_cast<std::size_t>(k) * src_stride * elem, elem)));
  }
}

sim::Task<> ShmemPe::iget(RankId dst, std::span<std::byte> dest, SymAddr src,
                          std::uint32_t dst_stride, std::uint32_t src_stride,
                          std::uint32_t elem, std::uint32_t nelems) {
  check_access("iget", src, 0);
  if (dst_stride == 0 || src_stride == 0 || elem == 0) {
    throw std::invalid_argument("ShmemPe::iget: zero stride or element");
  }
  if (static_cast<std::uint64_t>(nelems - 1) * dst_stride * elem + elem >
          dest.size() &&
      nelems > 0) {
    throw std::out_of_range("ShmemPe::iget: destination too small");
  }
  // Element gets run one after another, each through the put/get router.
  return [](ShmemPe& pe, RankId dst, std::span<std::byte> dest, SymAddr src,
            std::uint64_t src_step, std::uint64_t dst_step,
            std::uint32_t elem, std::uint32_t nelems) -> sim::Task<> {
    for (std::uint32_t k = 0; k < nelems; ++k) {
      co_await pe.rma("iget", dst, src + k * src_step,
                      fabric::RmaRequest::read(dest.subspan(
                          static_cast<std::size_t>(k * dst_step), elem)));
    }
  }(*this, dst, dest, src, std::uint64_t{src_stride} * elem,
    std::uint64_t{dst_stride} * elem, elem, nelems);
}

std::optional<std::span<std::byte>> ShmemPe::local_ptr(RankId peer,
                                                       SymAddr addr,
                                                       std::size_t len) {
  if (peer >= n_pes()) {
    throw std::out_of_range("ShmemPe::local_ptr: bad rank");
  }
  if (job_.conduit_job().node_of(peer) != conduit_.node()) {
    return std::nullopt;  // different node: no load/store path
  }
  return job_.pe(peer).local_window(addr, len);
}

// ---- ordering ----

sim::Task<> ShmemPe::quiet() {
  while (pending_puts_ > 0) {
    co_await puts_drained_->wait();
  }
}

sim::Task<> ShmemPe::wait_until(SymAddr addr, WaitCmp cmp,
                                std::uint64_t value) {
  auto satisfied = [&] {
    std::uint64_t current = local_read<std::uint64_t>(addr);
    switch (cmp) {
      case WaitCmp::kEq: return current == value;
      case WaitCmp::kNe: return current != value;
      case WaitCmp::kGt: return current > value;
      case WaitCmp::kGe: return current >= value;
      case WaitCmp::kLt: return current < value;
      case WaitCmp::kLe: return current <= value;
    }
    return false;
  };
  while (!satisfied()) {
    co_await engine().delay(config().wait_poll_interval);
  }
}

sim::Task<> ShmemPe::barrier_all() {
  co_await quiet();
  co_await conduit_.barrier_global();
  stats().add("shmem_barrier_all");
}

// ---- distributed locking ----
//
// The word on PE 0 is the authoritative lock; 0 = free, rank+1 = holder.
// Acquisition spins on remote compare-and-swap with exponential backoff —
// the simple (non-queueing) algorithm several OpenSHMEM implementations
// ship for shmem_set_lock.

sim::Task<> ShmemPe::set_lock(SymAddr lock) {
  stats().add("shmem_lock_acquire");
  sim::Time backoff = 2 * sim::usec;
  while (true) {
    std::uint64_t old =
        co_await atomic_compare_swap(0, lock, 0, rank_ + 1);
    if (old == 0) co_return;
    co_await engine().delay(backoff);
    if (backoff < 64 * sim::usec) backoff *= 2;
  }
}

sim::Task<bool> ShmemPe::test_lock(SymAddr lock) {
  std::uint64_t old = co_await atomic_compare_swap(0, lock, 0, rank_ + 1);
  co_return old == 0;
}

sim::Task<> ShmemPe::clear_lock(SymAddr lock) {
  // Complete all our critical-section stores before releasing.
  co_await quiet();
  std::uint64_t old = co_await atomic_swap(0, lock, 0);
  if (old != rank_ + 1) {
    throw std::logic_error("ShmemPe::clear_lock: not the lock holder");
  }
  stats().add("shmem_lock_release");
}

}  // namespace odcm::shmem
