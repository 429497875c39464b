// Conduit lifecycle, listeners, active messages and RMA wrappers.
#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/conduit.hpp"

namespace odcm::core {

std::string ud_endpoint_key(RankId rank) {
  return "odcm-ud:" + std::to_string(rank);
}

Conduit::Conduit(ConduitJob& job, RankId rank)
    : job_(job),
      rank_(rank),
      node_(job.node_of(rank)),
      ud_learned_(job.ranks()) {}

Conduit::~Conduit() = default;

std::uint32_t Conduit::size() const noexcept { return job_.ranks(); }

const ConduitConfig& Conduit::config() const noexcept {
  return job_.config().conduit;
}

fabric::Hca& Conduit::hca() { return job_.fabric().hca(node_); }

pmi::PmiClient& Conduit::pmi() { return job_.pmi().client(rank_); }

sim::Engine& Conduit::engine() { return job_.engine(); }

// ---- lifecycle ----

sim::Task<> Conduit::init() {
  if (initialized_) {
    throw std::logic_error("Conduit::init: already initialized");
  }
  listeners_done_ = std::make_unique<sim::JoinCounter>(engine());
  listeners_done_->add();
  ++listener_count_;
  engine().spawn(srq_listener());

  if (config().connection_mode == ConnectionMode::kOnDemand) {
    {
      sim::PhaseTimer timer(engine(), stats_, "connection_setup");
      ud_qp_ = co_await hca().create_qp(fabric::QpType::kUd, rank_);
      co_await ud_qp_->to_rts();
      job_.ud_directory_[rank_] = ud_qp_->addr();
      stats_.add("qp_created_ud");
    }
    listeners_done_->add();
    ++listener_count_;
    engine().spawn(ud_listener());
    {
      sim::PhaseTimer timer(engine(), stats_, "pmi_exchange");
      co_await publish_ud_endpoint();
    }
  } else if (size() > config().bulk_connect_threshold) {
    co_await static_connect_bulk();
  } else {
    co_await static_connect_all();
  }
  initialized_ = true;
}

sim::Task<> Conduit::finalize() {
  if (!initialized_ || finalized_) {
    co_return;
  }
  finalized_ = true;

  // Ring bootstrap must finish before receive queues close: every PE's
  // table completes with exactly the messages already in flight, so no PE
  // closes a queue another PE's ring task still needs.
  if (config().pmi_mode == PmiMode::kRing && ud_table_gate_) {
    co_await ud_table_gate_->wait();
  }

  // Stop listeners first: close the receive queues, let the loops drain and
  // exit, then tear down the QPs they were reading from.
  hca().srq(rank_).close();
  if (ud_qp_ != nullptr) {
    ud_qp_->ud_recv().close();
  }
  co_await listeners_done_->wait();

  // Let in-flight eviction drains (notice/ack sends on retired QPs) finish.
  // This must come after the listeners exit: a disconnect notice processed
  // moments before the queue closed can still spawn an ack task.
  if (pending_evictions_ > 0) {
    evictions_settled_ = std::make_unique<sim::Trigger>(engine());
    while (pending_evictions_ > 0) {
      co_await evictions_settled_->wait();
    }
  }

  // Flush the credit window of every still-connected peer. Finalize tears
  // QPs down without running set_phase, so without this the granted credits
  // would never be counted returned and the conservation audit
  // (credits_granted == credits_returned) could not close. Epochs are
  // bumped so any straggler release takes the stale-epoch path.
  if (config().qp_credits != 0) {
    for (Peer* p : peers_by_rank()) {
      if (p->phase == Peer::Phase::kConnected) {
        stats_.add("credits_returned", p->credit_pool);
        p->credit_pool = 0;
        ++p->credit_epoch;
        if (p->credit_free) p->credit_free->notify_all();
      }
    }
  }

  const fabric::FabricConfig& fcfg = job_.fabric().config();
  if (bulk_connected_) {
    std::uint64_t materialized = 0;
    for (const Peer& peer : peer_slots_) {
      if (peer.qp != nullptr) ++materialized;
    }
    // Aggregate teardown cost of the never-materialized bulk connections,
    // serialized on the HCA command queue like individual destroys.
    sim::Time done = hca().reserve_command_window(
        (bulk_endpoints_ - materialized) * fcfg.qp_destroy_cost);
    co_await engine().delay(done - engine().now());
  }
  for (Peer* peer : peers_by_rank()) {
    if (peer->qp != nullptr) {
      co_await hca().destroy_qp(peer->qp->qpn());
      peer->qp = nullptr;
      notify({.kind = ProtocolEvent::Kind::kQpUnbound, .peer = peer->rank});
    }
  }
  for (fabric::QueuePair* qp : retired_qps_) {
    co_await hca().destroy_qp(qp->qpn());
  }
  retired_qps_.clear();
  if (ud_qp_ != nullptr) {
    co_await hca().destroy_qp(ud_qp_->qpn());
    ud_qp_ = nullptr;
  }
}

void Conduit::set_payload_hooks(PayloadProvider provider,
                                PayloadConsumer consumer) {
  payload_provider_ = std::move(provider);
  payload_consumer_ = std::move(consumer);
  if (!ready_gate_) {
    ready_gate_ = std::make_unique<sim::Gate>(engine());
  }
}

void Conduit::set_ready() {
  if (ready_gate_) {
    ready_gate_->open();
  }
}

// ---- listeners ----

sim::Task<> Conduit::ud_listener() {
  // The "connection manager thread" of Fig. 4.
  while (true) {
    auto gram = co_await ud_qp_->ud_recv().pop_or_closed();
    if (!gram) break;
    co_await engine().delay(config().am_handler_overhead);
    ConnectPacket packet = ConnectPacket::decode(*gram->payload);
    fabric::EndpointAddr reply_to{gram->src_lid, gram->src_qpn};
    if (packet.type == UdMsgType::kConnectRequest) {
      handle_conn_request(std::move(packet), reply_to);
    } else {
      handle_conn_reply(std::move(packet));
    }
  }
  listeners_done_->finish();
}

sim::Task<> Conduit::srq_listener() {
  sim::Mailbox<fabric::RcMessage>& srq = hca().srq(rank_);
  while (true) {
    auto message = co_await srq.pop_or_closed();
    if (!message) break;
    co_await engine().delay(config().am_handler_overhead);
    // Consume the delivered buffer in place: the handler receives the
    // sender's own buffer with the trailer truncated off (DESIGN.md §5.18).
    co_await dispatch_am(AmPacket::decode_consume(std::move(message->payload)),
                         message->src_qpn);
  }
  listeners_done_->finish();
}

sim::Task<> Conduit::dispatch_am(AmPacket packet, fabric::Qpn src_qpn) {
  stats_.add("am_received");
  switch (packet.handler) {
    case 0: {  // barrier arrive
      wire::Reader reader(packet.payload);
      handle_barrier_arrive(packet.src_rank, reader.read_int<std::uint32_t>());
      co_return;
    }
    case 1: {  // barrier release
      wire::Reader reader(packet.payload);
      handle_barrier_release(reader.read_int<std::uint32_t>());
      co_return;
    }
    case 2:  // disconnect notice (adaptive connection management)
      handle_disconnect_notice(packet.src_rank, src_qpn);
      co_return;
    case 3:  // disconnect ack
      handle_disconnect_ack(packet.src_rank);
      co_return;
    case 4: {  // ring-bootstrap table entry
      wire::Reader reader(packet.payload);
      RingEntry entry;
      entry.rank = reader.read_int<std::uint32_t>();
      entry.addr.lid = reader.read_int<std::uint16_t>();
      entry.addr.qpn = reader.read_int<std::uint32_t>();
      ring_entries_->push(entry);
      co_return;
    }
    case kRendezvousHandler:  // rendezvous RTS/CTS (large-message tiering)
      // Runs as its own task: the RTS branch may suspend while the sink
      // resolver pins registration chunks.
      engine().spawn(
          handle_rendezvous(packet.src_rank, std::move(packet.payload)));
      co_return;
    default:
      break;
  }
  if (packet.handler >= handlers_.size() || !handlers_[packet.handler]) {
    throw std::runtime_error("Conduit: AM for unregistered handler " +
                             std::to_string(packet.handler));
  }
  // User handlers run as their own tasks so a handler that suspends cannot
  // stall the progress loop.
  engine().spawn(
      handlers_[packet.handler](packet.src_rank, std::move(packet.payload)));
}

// ---- active messages ----

void Conduit::register_handler(std::uint16_t id, AmHandler handler) {
  if (id < kFirstUserHandler) {
    throw std::logic_error("Conduit::register_handler: id reserved");
  }
  if (id >= handlers_.size()) {
    handlers_.resize(static_cast<std::size_t>(id) + 1);
  }
  if (handlers_[id]) {
    throw std::logic_error("Conduit::register_handler: duplicate id");
  }
  handlers_[id] = std::move(handler);
}

sim::Task<> Conduit::am_send(RankId dst, std::uint16_t handler,
                             std::vector<std::byte> payload) {
  if (shm_routes(dst)) {
    co_return co_await shm_am_send(dst, handler, std::move(payload));
  }
  while (true) {
    fabric::QueuePair* qp = co_await connected_qp(dst);
    // User-level messages consume a flow-control credit; conduit-internal
    // protocol traffic (barrier, disconnect notice/ack, rendezvous RTS/CTS)
    // is exempt so eviction drains and rendezvous handshakes can always
    // make progress even with the data window exhausted.
    std::optional<std::uint32_t> credit;
    if (handler >= kFirstUserHandler) {
      credit = co_await acquire_credit(dst);
      if (!credit) continue;  // connection torn down during the stall
    }
    AmPacket::seal(payload, handler, rank_);
    fabric::Completion wc;
    try {
      wc = co_await qp->send(std::move(payload));
    } catch (...) {
      // Return the credit on exceptional completion too, or the peer's
      // window shrinks forever and the finalize conservation audit fails.
      if (credit) release_credit(dst, *credit);
      throw;
    }
    if (credit) release_credit(dst, *credit);
    if (!wc.ok()) {
      throw std::runtime_error("Conduit::am_send: send failed");
    }
    stats_.add("am_sent");
    co_return;
  }
}

// ---- intra-node shared-memory transport ----

bool Conduit::shm_routes(RankId dst) const {
  return config().intranode_transport == IntranodeTransport::kShm &&
         dst < size() && job_.node_of(dst) == node_;
}

fabric::ShmDomain& Conduit::shm_domain() {
  return job_.fabric().shm_domain(node_);
}

void Conduit::mark_shm_peer(RankId dst) {
  if (shm_peers_.empty()) {
    shm_peers_.assign(job_.ranks_on_node(node_), false);
  }
  // `dst` is on this node (shm_routes), so its offset from the node's
  // first rank indexes the local bits.
  const std::size_t local = dst - node_ * job_.config().ranks_per_node;
  if (!shm_peers_[local]) {
    shm_peers_[local] = true;
    ++shm_peer_count_;
  }
}

sim::Task<> Conduit::shm_export(fabric::AddressSpace& space,
                                fabric::VirtAddr base, std::uint64_t len) {
  if (config().intranode_transport != IntranodeTransport::kShm) {
    co_return;
  }
  co_await shm_domain().export_segment(rank_, space, base, len);
  stats_.add("shm_segment_exported");
}

sim::Task<> Conduit::shm_am_send(RankId dst, std::uint16_t handler,
                                 std::vector<std::byte> payload) {
  const fabric::FabricConfig& fcfg = job_.fabric().config();
  AmPacket::seal(payload, handler, rank_);
  co_await engine().delay(
      fcfg.shm_am_overhead + fcfg.shm_copy_latency +
      static_cast<sim::Time>(static_cast<double>(payload.size()) /
                             fcfg.shm_bytes_per_ns));
  mark_shm_peer(dst);
  stats_.add("am_sent");
  stats_.add("am_sent_shm");
  // Delivered through the same per-PE receive queue RC SENDs land in, so
  // dispatch (and its software overhead) stays transport-independent.
  // src_qpn 0 marks a connectionless origin.
  hca().srq(dst).push(
      fabric::RcMessage{.src_lid = hca().lid(), .payload = std::move(payload)});
}

namespace {
/// Stat counters of one RMA: every transport counts the first, the shm
/// transport also the second.
std::pair<sim::StatName, sim::StatName> rma_counters(fabric::WcOpcode op) {
  switch (op) {
    case fabric::WcOpcode::kRdmaWrite:
      return {sim::StatName("rma_put"), sim::StatName("rma_put_shm")};
    case fabric::WcOpcode::kRdmaRead:
      return {sim::StatName("rma_get"), sim::StatName("rma_get_shm")};
    default:
      return {sim::StatName("rma_atomic"), sim::StatName("rma_atomic_shm")};
  }
}
}  // namespace

sim::Task<fabric::Completion> Conduit::shm_rma(RankId dst,
                                               fabric::VirtAddr raddr,
                                               fabric::RmaRequest wr) {
  const fabric::FabricConfig& fcfg = job_.fabric().config();
  const sim::Time start = engine().now();
  const std::size_t len = wr.length();
  mark_shm_peer(dst);
  const auto [counter, shm_counter] = rma_counters(wr.opcode);
  stats_.add(counter);
  stats_.add(shm_counter);
  notify({.kind = ProtocolEvent::Kind::kShmIssued, .peer = dst});
  // A write reads its source at issue time, as the RC verb does at post.
  std::vector<std::byte> payload(wr.src.begin(), wr.src.end());
  wr.src = payload;
  sim::Time cost = fcfg.shm_atomic_latency;
  if (!wr.is_atomic()) {
    cost = fcfg.shm_copy_latency +
           static_cast<sim::Time>(static_cast<double>(len) /
                                  fcfg.shm_bytes_per_ns);
  }
  co_await engine().delay(cost);
  // The access happens at this single simulated instant, on the same
  // AddressSpace bytes RC verbs resolve to through the HCA registration
  // table — which is the whole coherence argument for atomics (DESIGN.md
  // §5.14).
  fabric::Completion wc;
  wc.opcode = wr.opcode;
  wc.byte_len = static_cast<std::uint32_t>(len);
  auto window = shm_domain().resolve(dst, raddr, len);
  if (!window) {
    wc.status = fabric::WcStatus::kRemoteAccessError;
  } else {
    wc.atomic_old = fabric::execute(wr, *window);
  }
  stats_.add_time("rma_shm_time", engine().now() - start);
  co_return wc;
}

// ---- RMA ----

sim::Task<fabric::QueuePair*> Conduit::connected_qp(RankId dst) {
  if (dst >= size()) {
    throw std::out_of_range("Conduit::connected_qp: bad rank");
  }
  co_await ensure_connected(dst);
  Peer& p = peer(dst);
  // Touch the LRU clock; the list keeps its (last_used, rank) order so
  // victim selection stays O(1).
  if (p.in_lru) {
    lru_.touch(p, engine().now());
  } else {
    p.last_used = engine().now();
  }
  co_return p.qp;
}

sim::Task<fabric::Completion> Conduit::rma(RankId dst, fabric::VirtAddr raddr,
                                           fabric::RKey rkey,
                                           fabric::RmaRequest wr) {
  if (shm_routes(dst)) {
    return shm_rma(dst, raddr, wr);
  }
  return rc_rma(dst, raddr, rkey, wr);
}

sim::Task<fabric::Completion> Conduit::atomic(RankId dst,
                                              fabric::VirtAddr raddr,
                                              fabric::RKey rkey,
                                              fabric::WcOpcode op,
                                              std::uint64_t operand,
                                              std::uint64_t compare) {
  return rma(dst, raddr, rkey,
             fabric::RmaRequest::atomic(op, operand, compare));
}

sim::Task<fabric::Completion> Conduit::rc_rma(RankId dst,
                                              fabric::VirtAddr raddr,
                                              fabric::RKey rkey,
                                              fabric::RmaRequest wr) {
  const sim::Time start = engine().now();
  while (true) {
    fabric::QueuePair* qp = co_await connected_qp(dst);
    std::optional<std::uint32_t> credit = co_await acquire_credit(dst);
    if (!credit) continue;
    stats_.add(rma_counters(wr.opcode).first);
    notify({.kind = ProtocolEvent::Kind::kRdmaIssued, .peer = dst});
    // Credits return on every completion path, exceptional included
    // (conservation audit; same guard as stream_fragments).
    fabric::Completion wc;
    try {
      wc = co_await qp->post(raddr, rkey, wr);
    } catch (...) {
      release_credit(dst, *credit);
      throw;
    }
    release_credit(dst, *credit);
    stats_.add_time("rma_rc_time", engine().now() - start);
    co_return wc;
  }
}

// ---- PMI endpoint publication ----

sim::Task<> Conduit::publish_ud_endpoint() {
  std::string value = encode_endpoint(ud_qp_->addr());
  if (config().pmi_mode == PmiMode::kBlocking) {
    co_await pmi().put(ud_endpoint_key(rank_), std::move(value));
    co_await pmi().fence();
  } else if (config().pmi_mode == PmiMode::kRing) {
    // PMIX_Ring bootstrap: constant-cost out-of-band exchange of the ring
    // neighbors' endpoints, then the full table travels over InfiniBand.
    auto [left, right] = co_await pmi().ring(std::move(value));
    learn_ud((rank_ + size() - 1) % size(), decode_endpoint(left));
    learn_ud((rank_ + 1) % size(), decode_endpoint(right));
    ud_table_gate_ = std::make_unique<sim::Gate>(engine());
    ring_entries_ = std::make_unique<sim::Mailbox<RingEntry>>(engine());
    engine().spawn(ring_distribute());
  } else {
    // PMIX_Iallgather: launched here, waited on at first communication
    // (paper §IV-D). Launching is effectively free.
    ud_ticket_ = pmi().iallgather_start(std::move(value));
  }
}

sim::Task<> Conduit::ring_distribute() {
  const std::uint32_t n = size();
  if (n <= 2) {
    // Neighbors cover the whole job already.
    ud_table_gate_->open();
    co_return;
  }
  RankId right = (rank_ + 1) % n;
  RingEntry current{rank_, job_.ud_endpoint(rank_)};
  for (std::uint32_t step = 0; step + 1 < n; ++step) {
    std::vector<std::byte> payload;
    wire::put_int<std::uint32_t>(payload, current.rank);
    wire::put_int<std::uint16_t>(payload, current.addr.lid);
    wire::put_int<std::uint32_t>(payload, current.addr.qpn);
    co_await am_send(right, /*handler=*/4, std::move(payload));
    current = co_await ring_entries_->pop();
    learn_ud(current.rank, current.addr);
  }
  stats_.add("ring_bootstrap_hops", n - 1);
  ud_table_gate_->open();
}

void Conduit::learn_ud(RankId rank, fabric::EndpointAddr addr) {
  if (addr != job_.ud_endpoint(rank)) {
    throw std::logic_error("Conduit: the UD endpoint learned for rank " +
                           std::to_string(rank) +
                           " differs from the one it published");
  }
  ud_learned_.insert(rank);
}

sim::Task<fabric::EndpointAddr> Conduit::resolve_ud(RankId dst) {
  if (ud_learned_.contains(dst)) {
    co_return job_.ud_endpoint(dst);
  }
  sim::PhaseTimer timer(engine(), stats_, "pmi_wait");
  if (config().pmi_mode == PmiMode::kRing) {
    // The ring dissemination fills the table in the background; wait for
    // completion (first-communication semantics, like PMIX_Wait).
    co_await ud_table_gate_->wait();
    co_return job_.ud_endpoint(dst);
  }
  if (config().pmi_mode == PmiMode::kNonBlocking) {
    if (ud_resolving_) {
      co_await ud_table_gate_->wait();
    } else {
      ud_resolving_ = true;
      ud_table_gate_ = std::make_unique<sim::Gate>(engine());
      std::span<const std::string> values =
          co_await pmi().iallgather_wait(*ud_ticket_);
      job_.verify_ud_round(ud_ticket_->round, values);
      ud_learned_.insert_all();
      ud_table_gate_->open();
    }
    co_return job_.ud_endpoint(dst);
  }
  auto value = co_await pmi().get(ud_endpoint_key(dst));
  if (!value) {
    throw std::runtime_error("Conduit::resolve_ud: endpoint not published");
  }
  learn_ud(dst, decode_endpoint(*value));
  co_return job_.ud_endpoint(dst);
}

// ---- accounting ----

Conduit::Peer& Conduit::peer(RankId rank) {
  const std::uint32_t slot = peer_index_.find(rank);
  if (slot != RankIndex::kNone) {
    return peer_slots_[slot];
  }
  peer_index_.insert(rank, static_cast<std::uint32_t>(peer_slots_.size()));
  Peer& p = peer_slots_.emplace_back();
  p.rank = rank;
  return p;
}

const Conduit::Peer* Conduit::find_peer(RankId rank) const noexcept {
  const std::uint32_t slot = peer_index_.find(rank);
  return slot == RankIndex::kNone ? nullptr : &peer_slots_[slot];
}

std::vector<Conduit::Peer*> Conduit::peers_by_rank() {
  std::vector<Peer*> out;
  out.reserve(peer_slots_.size());
  for (Peer& p : peer_slots_) out.push_back(&p);
  std::sort(out.begin(), out.end(),
            [](const Peer* a, const Peer* b) { return a->rank < b->rank; });
  return out;
}

std::size_t Conduit::memory_footprint() const noexcept {
  return ud_learned_.memory_bytes() + peer_index_.memory_bytes() +
         peer_slots_.size() * sizeof(Peer) + shm_peers_.capacity() / 8;
}

std::uint64_t Conduit::connected_peer_count() const {
  if (bulk_connected_) {
    return size();
  }
  return connected_count_;
}

PeerPhase Conduit::peer_phase(RankId rank) const {
  const Peer* p = find_peer(rank);
  return p == nullptr ? PeerPhase::kIdle : p->phase;
}

PeerRole Conduit::peer_role(RankId rank) const {
  const Peer* p = find_peer(rank);
  return p == nullptr ? PeerRole::kNone : p->role;
}

std::uint64_t Conduit::endpoints_created() const {
  return static_cast<std::uint64_t>(stats_.counter("qp_created_rc") +
                                    stats_.counter("qp_created_ud"));
}

}  // namespace odcm::core
