#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "fabric/fabric.hpp"

namespace odcm::fabric {

namespace {

/// Validate a verbs state transition.
bool valid_transition(QpState from, QpState to) {
  switch (to) {
    case QpState::kInit:
      return from == QpState::kReset;
    case QpState::kRtr:
      return from == QpState::kInit;
    case QpState::kRts:
      return from == QpState::kRtr;
    case QpState::kReset:
    case QpState::kError:
      return true;
    default:
      return false;
  }
}

struct AtomicResult {
  WcStatus status = WcStatus::kSuccess;
  std::uint64_t old_value = 0;
};

}  // namespace

QueuePair::QueuePair(Hca& hca, Qpn qpn, QpType type, RankId owner)
    : hca_(hca), qpn_(qpn), type_(type), owner_(owner) {
  if (type_ == QpType::kUd) {
    ud_recv_ =
        std::make_unique<sim::Mailbox<UdDatagram>>(hca_.fabric().engine());
  }
}

Lid QueuePair::lid() const noexcept { return hca_.lid(); }

void QueuePair::require_state(QpState expected, const char* op) const {
  if (state_ != expected) {
    throw std::logic_error(std::string("QueuePair: ") + op +
                           " requires QP state " +
                           std::to_string(static_cast<int>(expected)) +
                           ", current state " +
                           std::to_string(static_cast<int>(state_)));
  }
}

void QueuePair::require_type(QpType expected, const char* op) const {
  if (type_ != expected) {
    throw std::logic_error(std::string("QueuePair: ") + op +
                           " called on wrong transport type");
  }
}

// ---- state machine ----

sim::Task<> QueuePair::transition(QpState next) {
  if (!valid_transition(state_, next)) {
    throw std::logic_error("QueuePair::transition: invalid state change");
  }
  if (type_ == QpType::kRc && next == QpState::kRtr && remote_.lid == 0) {
    throw std::logic_error(
        "QueuePair::transition: RC QP needs set_remote before RTR");
  }
  return transition_impl(next);
}

sim::Task<> QueuePair::transition_impl(QpState next) {
  co_await hca_.fabric().engine().delay(
      hca_.fabric().config().qp_transition_cost);
  state_ = next;
}

sim::Task<> QueuePair::to_rts() {
  if (state_ == QpState::kReset) co_await transition(QpState::kInit);
  if (state_ == QpState::kInit) co_await transition(QpState::kRtr);
  if (state_ == QpState::kRtr) co_await transition(QpState::kRts);
  if (state_ != QpState::kRts) {
    throw std::logic_error("QueuePair::to_rts: QP is in error state");
  }
}

void QueuePair::set_remote(EndpointAddr remote) {
  if (type_ != QpType::kRc) {
    throw std::logic_error("QueuePair::set_remote: only RC QPs connect");
  }
  remote_ = remote;
}

std::optional<std::span<std::byte>> QueuePair::resolve_remote(
    VirtAddr raddr, RKey rkey, std::size_t len) {
  Hca& remote_hca = hca_.fabric().hca_by_lid(remote_.lid);
  return remote_hca.resolve(raddr, rkey, len);
}

sim::Time QueuePair::schedule_arrival(std::size_t bytes) {
  Fabric& fabric = hca_.fabric();
  sim::Time depart = hca_.reserve_injection_slot();
  sim::Time latency = fabric.transfer_latency(lid(), remote_.lid, bytes) +
                      hca_.cache_penalty();
  sim::Time arrival = std::max(depart + latency, last_arrival_);
  last_arrival_ = arrival;
  return arrival;
}

Completion QueuePair::finish(WrId wr_id, WcOpcode opcode, WcStatus status,
                             std::uint32_t byte_len,
                             std::uint64_t atomic_old) {
  --outstanding_;
  if (status != WcStatus::kSuccess) {
    state_ = QpState::kError;
  }
  return Completion{wr_id, status, opcode, byte_len, atomic_old};
}

// ---- RC operations ----

sim::Task<Completion> QueuePair::send(std::vector<std::byte> payload,
                                      WrId wr_id) {
  require_type(QpType::kRc, "send");
  require_state(QpState::kRts, "send");
  return send_impl(std::move(payload), wr_id);
}

sim::Task<Completion> QueuePair::send_impl(std::vector<std::byte> payload,
                                           WrId wr_id) {
  ++outstanding_;
  sim::Engine& engine = hca_.fabric().engine();
  const auto byte_len = static_cast<std::uint32_t>(payload.size());
  sim::Time arrival = schedule_arrival(payload.size());

  Hca& remote_hca = hca_.fabric().hca_by_lid(remote_.lid);
  QueuePair* remote_qp = remote_hca.find_qp(remote_.qpn);
  if (remote_qp == nullptr) {
    // The peer QP vanished: real RC would retry and eventually fail with a
    // retry-exceeded completion; we fail immediately.
    co_await engine.delay(hca_.fabric().config().ack_latency);
    co_return finish(wr_id, WcOpcode::kSend, WcStatus::kRemoteAccessError, 0);
  }
  RankId dst_rank = remote_qp->owner();

  // The arrival event owns the message: nothing of this frame is borrowed.
  engine.schedule_at(
      arrival, [&remote_hca, dst_rank,
                message = RcMessage{lid(), qpn_, remote_.qpn,
                                    std::move(payload)}]() mutable {
        sim::Mailbox<RcMessage>& srq = remote_hca.srq(dst_rank);
        // A drained (closed) receive queue flushes incoming messages, like a
        // QP in the error state.
        if (!srq.closed()) {
          srq.push(std::move(message));
        }
      });

  sim::Gate done(engine);
  engine.schedule_at(arrival + hca_.fabric().config().ack_latency,
                     [&done] { done.open(); });
  co_await done.wait();
  co_return finish(wr_id, WcOpcode::kSend, WcStatus::kSuccess, byte_len);
}

sim::Task<Completion> QueuePair::rdma_write(VirtAddr raddr, RKey rkey,
                                            std::vector<std::byte> data,
                                            WrId wr_id) {
  require_type(QpType::kRc, "rdma_write");
  require_state(QpState::kRts, "rdma_write");
  return rdma_write_impl(raddr, rkey, std::move(data), wr_id);
}

sim::Task<Completion> QueuePair::rdma_write_impl(VirtAddr raddr, RKey rkey,
                                                 std::vector<std::byte> data,
                                                 WrId wr_id) {
  ++outstanding_;
  sim::Engine& engine = hca_.fabric().engine();
  const auto byte_len = static_cast<std::uint32_t>(data.size());
  sim::Time arrival = schedule_arrival(data.size());

  // The request event owns the payload and shares the status: under
  // schedule jitter it can fire after the completion below has resumed and
  // destroyed this frame, so it must not borrow frame locals.
  auto status = std::make_shared<WcStatus>(WcStatus::kSuccess);
  engine.schedule_at(arrival, [this, raddr, rkey, payload = std::move(data),
                               status] {
    auto window = resolve_remote(raddr, rkey, payload.size());
    if (!window) {
      *status = WcStatus::kRemoteAccessError;
      return;
    }
    std::copy(payload.begin(), payload.end(), window->begin());
  });

  sim::Gate done(engine);
  engine.schedule_at(arrival + hca_.fabric().config().ack_latency,
                     [&done] { done.open(); });
  co_await done.wait();
  co_return finish(wr_id, WcOpcode::kRdmaWrite, *status, byte_len);
}

sim::Task<Completion> QueuePair::rdma_read(VirtAddr raddr, RKey rkey,
                                           std::span<std::byte> dest,
                                           WrId wr_id) {
  require_type(QpType::kRc, "rdma_read");
  require_state(QpState::kRts, "rdma_read");
  return rdma_read_impl(raddr, rkey, dest, wr_id);
}

sim::Task<Completion> QueuePair::rdma_read_impl(VirtAddr raddr, RKey rkey,
                                                std::span<std::byte> dest,
                                                WrId wr_id) {
  ++outstanding_;
  sim::Engine& engine = hca_.fabric().engine();
  const FabricConfig& cfg = hca_.fabric().config();
  const auto byte_len = static_cast<std::uint32_t>(dest.size());

  // The read request itself is header-only; the response carries the data.
  sim::Time request_arrival = schedule_arrival(0);
  sim::Time response_arrival =
      request_arrival + cfg.responder_overhead +
      hca_.fabric().transfer_latency(remote_.lid, lid(), dest.size());

  // Shared by the request and response events (one allocation per read):
  // under schedule jitter the request can fire after the response has
  // resumed and destroyed this frame.
  struct ReadState {
    WcStatus status = WcStatus::kSuccess;
    std::vector<std::byte> snapshot{};
  };
  auto state = std::make_shared<ReadState>();
  engine.schedule_at(request_arrival, [this, raddr, rkey, byte_len, state] {
    auto window = resolve_remote(raddr, rkey, byte_len);
    if (!window) {
      state->status = WcStatus::kRemoteAccessError;
      return;
    }
    state->snapshot.assign(window->begin(), window->end());
  });

  sim::Gate done(engine);
  engine.schedule_at(response_arrival, [dest, state, &done] {
    if (state->status == WcStatus::kSuccess) {
      std::copy(state->snapshot.begin(), state->snapshot.end(), dest.begin());
    }
    done.open();
  });
  co_await done.wait();
  co_return finish(wr_id, WcOpcode::kRdmaRead, state->status, byte_len);
}

sim::Task<Completion> QueuePair::atomic(WcOpcode op, VirtAddr raddr, RKey rkey,
                                        std::uint64_t operand,
                                        std::uint64_t compare, WrId wr_id) {
  require_type(QpType::kRc, "atomic");
  require_state(QpState::kRts, "atomic");
  if (!is_atomic(op)) {
    throw std::logic_error("QueuePair::atomic: not an atomic opcode");
  }
  return atomic_impl(op, raddr, rkey, operand, compare, wr_id);
}

sim::Task<Completion> QueuePair::atomic_impl(WcOpcode op, VirtAddr raddr,
                                             RKey rkey, std::uint64_t operand,
                                             std::uint64_t compare,
                                             WrId wr_id) {
  ++outstanding_;
  sim::Engine& engine = hca_.fabric().engine();
  const FabricConfig& cfg = hca_.fabric().config();
  sim::Time request_arrival = schedule_arrival(sizeof(std::uint64_t));
  sim::Time response_arrival =
      request_arrival + cfg.responder_overhead +
      hca_.fabric().transfer_latency(remote_.lid, lid(),
                                     sizeof(std::uint64_t));

  auto result = std::make_shared<AtomicResult>();
  engine.schedule_at(request_arrival, [this, raddr, rkey, op, operand,
                                       compare, result] {
    auto window = resolve_remote(raddr, rkey, sizeof(std::uint64_t));
    if (!window) {
      result->status = WcStatus::kRemoteAccessError;
      return;
    }
    result->old_value =
        execute(RmaRequest::atomic(op, operand, compare), *window);
  });

  sim::Gate done(engine);
  engine.schedule_at(response_arrival, [&done] { done.open(); });
  co_await done.wait();
  co_return finish(wr_id, op, result->status, sizeof(std::uint64_t),
                   result->old_value);
}

sim::Task<Completion> QueuePair::post(VirtAddr raddr, RKey rkey,
                                      const RmaRequest& wr, WrId wr_id) {
  switch (wr.opcode) {
    case WcOpcode::kRdmaWrite:
      return rdma_write(raddr, rkey,
                        std::vector<std::byte>(wr.src.begin(), wr.src.end()),
                        wr_id);
    case WcOpcode::kRdmaRead:
      return rdma_read(raddr, rkey, wr.sink, wr_id);
    default:
      return atomic(wr.opcode, raddr, rkey, wr.operand, wr.compare, wr_id);
  }
}

// ---- UD operations ----

sim::Task<Completion> QueuePair::send_ud(Lid dlid, Qpn dqpn,
                                         std::vector<std::byte> payload,
                                         WrId wr_id) {
  return send_ud(
      dlid, dqpn,
      std::make_shared<const std::vector<std::byte>>(std::move(payload)),
      wr_id);
}

sim::Task<Completion> QueuePair::send_ud(Lid dlid, Qpn dqpn, UdPayload payload,
                                         WrId wr_id) {
  require_type(QpType::kUd, "send_ud");
  require_state(QpState::kRts, "send_ud");
  if (payload == nullptr) {
    throw std::logic_error("QueuePair::send_ud: null payload");
  }
  if (payload->size() > hca_.fabric().config().mtu) {
    throw std::logic_error("QueuePair::send_ud: payload exceeds MTU");
  }
  return send_ud_impl(dlid, dqpn, std::move(payload), wr_id);
}

sim::Task<Completion> QueuePair::send_ud_impl(Lid dlid, Qpn dqpn,
                                              UdPayload payload, WrId wr_id) {
  ++outstanding_;
  Fabric& fabric = hca_.fabric();
  const FabricConfig& cfg = fabric.config();
  sim::Engine& engine = fabric.engine();
  const auto byte_len = static_cast<std::uint32_t>(payload->size());
  sim::Time depart = hca_.reserve_injection_slot();

  auto deliver = [&fabric, dlid, dqpn](sim::Time at,
                                       std::shared_ptr<UdDatagram> gram) {
    fabric.engine().schedule_at(at, [&fabric, dlid, dqpn, gram] {
      QueuePair* dst = fabric.hca_by_lid(dlid).find_qp(dqpn);
      // Datagrams to missing or non-UD QPs are silently dropped, like real
      // UD traffic to a stale QPN.
      if (dst != nullptr && dst->type() == QpType::kUd &&
          (dst->state() == QpState::kRtr || dst->state() == QpState::kRts) &&
          !dst->ud_recv().closed()) {
        dst->ud_recv().push(*gram);
      }
    });
  };

  // Scripted fault schedule (if installed) composes with the i.i.d. rates:
  // the hook sees every datagram and may drop, duplicate, delay, or kill
  // the destination QP outright.
  UdFault fault{};
  if (fabric.ud_fault_hook()) {
    UdSendContext ctx;
    ctx.src_rank = owner_;
    QueuePair* dst_peek = fabric.hca_by_lid(dlid).find_qp(dqpn);
    ctx.dst_rank = dst_peek != nullptr ? dst_peek->owner() : 0;
    ctx.src_lid = lid();
    ctx.dst_lid = dlid;
    ctx.src_qpn = qpn_;
    ctx.dst_qpn = dqpn;
    ctx.payload = *payload;
    ctx.index = fabric.next_ud_index();
    ctx.now = engine.now();
    fault = fabric.ud_fault_hook()(ctx);
  }

  if (fault.kill_dst_qp) {
    engine.schedule_at(depart, [&fabric, dlid, dqpn] {
      QueuePair* dst = fabric.hca_by_lid(dlid).find_qp(dqpn);
      if (dst != nullptr) dst->set_error();
    });
  }
  bool dropped = fault.drop || fault.kill_dst_qp;
  dropped = fabric.rng().chance(cfg.ud_drop_rate) || dropped;
  if (!dropped) {
    sim::Time jitter =
        cfg.ud_jitter_max > 0 ? fabric.rng().next_below(cfg.ud_jitter_max) : 0;
    sim::Time latency = fabric.transfer_latency(lid(), dlid, payload->size()) +
                        jitter + fault.extra_delay;
    // Every delivered copy (including duplicates) shares the immutable
    // payload buffer; only the shared_ptr is copied per delivery.
    auto gram = std::make_shared<UdDatagram>(
        UdDatagram{lid(), qpn_, std::move(payload)});
    deliver(depart + latency, gram);
    if (fabric.rng().chance(cfg.ud_duplicate_rate)) {
      sim::Time jitter2 = cfg.ud_jitter_max > 0
                              ? fabric.rng().next_below(cfg.ud_jitter_max)
                              : cfg.wire_latency;
      deliver(depart + latency + jitter2 + 1, gram);
    }
    for (std::uint32_t copy = 0; copy < fault.duplicates; ++copy) {
      deliver(depart + latency + (copy + 1) * (cfg.wire_latency + 1), gram);
    }
  }

  sim::Gate done(engine);
  engine.schedule_at(depart + cfg.hca_tx_overhead, [&done] { done.open(); });
  co_await done.wait();
  co_return finish(wr_id, WcOpcode::kSend, WcStatus::kSuccess, byte_len);
}

sim::Mailbox<UdDatagram>& QueuePair::ud_recv() {
  if (!ud_recv_) {
    throw std::logic_error("QueuePair::ud_recv: not a UD QP");
  }
  return *ud_recv_;
}

}  // namespace odcm::fabric
