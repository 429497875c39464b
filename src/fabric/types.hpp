// Plain data types shared across the simulated InfiniBand fabric.
//
// Naming follows the verbs object model: LIDs identify HCAs (one HCA per
// node, like the paper's clusters), QPNs identify queue pairs within an HCA,
// and `<lid, qpn>` is the endpoint address exchanged out-of-band — "roughly
// equivalent to IP address and port number" (paper §IV-A).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

namespace odcm::fabric {

using Lid = std::uint16_t;       ///< Local identifier of an HCA (per node).
using Qpn = std::uint32_t;       ///< Queue pair number, unique within an HCA.
using RKey = std::uint64_t;      ///< Remote protection key of a memory region.
using VirtAddr = std::uint64_t;  ///< Simulated virtual address.
using NodeId = std::uint32_t;    ///< Compute-node index.
using RankId = std::uint32_t;    ///< Global PE / process rank.
using WrId = std::uint64_t;      ///< Work-request identifier.

/// Transport type of a queue pair (paper §III-C).
enum class QpType : std::uint8_t {
  kRc,  ///< Reliable Connected: one QP per peer, supports RDMA and atomics.
  kUd,  ///< Unreliable Datagram: one QP talks to any peer, send/recv only.
};

/// Queue-pair state machine, as driven by `ibv_modify_qp` in real verbs.
enum class QpState : std::uint8_t {
  kReset,
  kInit,
  kRtr,  ///< Ready-to-receive.
  kRts,  ///< Ready-to-send.
  kError,
};

/// Completion status (subset of ibv_wc_status).
enum class WcStatus : std::uint8_t {
  kSuccess,
  kRemoteAccessError,  ///< Bad rkey or out-of-range remote address.
  kFlushError,         ///< QP entered error state before the WR executed.
};

/// Completed operation kind (subset of ibv_wc_opcode).
enum class WcOpcode : std::uint8_t {
  kSend,
  kRdmaWrite,
  kRdmaRead,
  kFetchAdd,
  kCompareSwap,
  kSwap,  ///< Unconditional swap (ConnectX extended atomics).
};

/// Work completion delivered to the initiator when an operation finishes.
struct Completion {
  WrId wr_id = 0;
  WcStatus status = WcStatus::kSuccess;
  WcOpcode opcode = WcOpcode::kSend;
  std::uint32_t byte_len = 0;
  /// Prior value at the target address, for atomic operations.
  std::uint64_t atomic_old = 0;

  [[nodiscard]] bool ok() const noexcept {
    return status == WcStatus::kSuccess;
  }
};

constexpr bool is_atomic(WcOpcode op) noexcept {
  return op == WcOpcode::kFetchAdd || op == WcOpcode::kCompareSwap ||
         op == WcOpcode::kSwap;
}

/// The one definition of the three atomic verbs: the value an atomic with
/// `op` leaves behind at a word that held `old`. `operand` is the addend
/// (fetch-add) or the value swapped in (swap, compare-swap); `compare` is
/// compare-swap's expected value. Every layer takes (operand, compare) in
/// this order.
constexpr std::uint64_t apply_atomic(WcOpcode op, std::uint64_t old,
                                     std::uint64_t operand,
                                     std::uint64_t compare) {
  switch (op) {
    case WcOpcode::kFetchAdd:
      return old + operand;
    case WcOpcode::kCompareSwap:
      return old == compare ? operand : old;
    case WcOpcode::kSwap:
      return operand;
    default:
      throw std::logic_error("fabric::apply_atomic: not an atomic opcode");
  }
}

/// One RMA work request, shaped like a verbs send work request: the opcode
/// selects write, read or an atomic. `src` is a write's payload and `sink`
/// a read's destination (the `is_get` + source span + sink span convention
/// of the bulk streamer); atomics act on one 8-byte word with `operand`
/// and `compare` as in `apply_atomic`.
struct RmaRequest {
  WcOpcode opcode = WcOpcode::kRdmaWrite;
  std::span<const std::byte> src{};
  std::span<std::byte> sink{};
  std::uint64_t operand = 0;
  std::uint64_t compare = 0;

  static RmaRequest write(std::span<const std::byte> src) {
    return {.opcode = WcOpcode::kRdmaWrite, .src = src};
  }
  static RmaRequest read(std::span<std::byte> sink) {
    return {.opcode = WcOpcode::kRdmaRead, .sink = sink};
  }
  static RmaRequest atomic(WcOpcode op, std::uint64_t operand,
                           std::uint64_t compare) {
    return {.opcode = op, .operand = operand, .compare = compare};
  }

  [[nodiscard]] bool is_get() const noexcept {
    return opcode == WcOpcode::kRdmaRead;
  }
  [[nodiscard]] bool is_atomic() const noexcept {
    return fabric::is_atomic(opcode);
  }
  /// Bytes the request touches at the target.
  [[nodiscard]] std::size_t length() const noexcept {
    if (is_atomic()) return sizeof(std::uint64_t);
    return is_get() ? sink.size() : src.size();
  }
  /// The part of a write or read covering `[offset, offset + len)`. An
  /// atomic is indivisible and returns itself.
  [[nodiscard]] RmaRequest slice(std::size_t offset, std::size_t len) const {
    RmaRequest part = *this;
    if (is_get()) {
      part.sink = sink.subspan(offset, len);
    } else if (!is_atomic()) {
      part.src = src.subspan(offset, len);
    }
    return part;
  }
};

/// Carry out `wr` on `window` (exactly `wr.length()` bytes of target
/// memory), the way the responder does. Returns the word's prior value for
/// an atomic, 0 otherwise.
inline std::uint64_t execute(const RmaRequest& wr,
                             std::span<std::byte> window) {
  if (wr.opcode == WcOpcode::kRdmaWrite) {
    std::copy(wr.src.begin(), wr.src.end(), window.begin());
    return 0;
  }
  if (wr.opcode == WcOpcode::kRdmaRead) {
    std::copy(window.begin(), window.end(), wr.sink.begin());
    return 0;
  }
  std::uint64_t old = 0;
  std::memcpy(&old, window.data(), sizeof(old));
  const std::uint64_t next =
      apply_atomic(wr.opcode, old, wr.operand, wr.compare);
  std::memcpy(window.data(), &next, sizeof(next));
  return old;
}

/// Immutable datagram payload, shared between the sender's retransmission
/// buffer and every delivered (possibly duplicated) copy of the datagram.
/// UD delivery used to copy the payload per duplicate; sharing one buffer
/// removes the per-packet allocation from the handshake hot path.
using UdPayload = std::shared_ptr<const std::vector<std::byte>>;

/// Datagram delivered to a UD queue pair's receive queue. Carries the
/// source address the way a GRH does, so the receiver can reply.
struct UdDatagram {
  Lid src_lid = 0;
  Qpn src_qpn = 0;
  UdPayload payload{};
};

/// RC SEND message delivered to the owner PE's shared receive queue.
struct RcMessage {
  Lid src_lid = 0;
  Qpn src_qpn = 0;  ///< The *sender's* QP number.
  Qpn dst_qpn = 0;  ///< The local QP the message arrived on.
  std::vector<std::byte> payload{};
};

/// Endpoint address tuple exchanged out-of-band (paper §IV-A).
struct EndpointAddr {
  Lid lid = 0;
  Qpn qpn = 0;

  friend bool operator==(const EndpointAddr&, const EndpointAddr&) = default;
};

}  // namespace odcm::fabric
