// Shared OpenSHMEM-layer types.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "fabric/types.hpp"

namespace odcm::shmem {

using RankId = fabric::RankId;

/// A symmetric address: byte offset into the symmetric heap. The same
/// offset denotes the "same" object on every PE (OpenSHMEM semantics).
using SymAddr = std::uint64_t;

/// The `<address, size, rkey>` triplet each PE must learn about a peer's
/// symmetric heap before it can issue RDMA to it (paper §IV-B).
struct SegmentInfo {
  fabric::VirtAddr addr = 0;
  std::uint64_t size = 0;
  fabric::RKey rkey = 0;

  [[nodiscard]] std::vector<std::byte> serialize() const {
    std::vector<std::byte> out(24);
    std::memcpy(out.data(), &addr, 8);
    std::memcpy(out.data() + 8, &size, 8);
    std::memcpy(out.data() + 16, &rkey, 8);
    return out;
  }

  friend bool operator==(const SegmentInfo&, const SegmentInfo&) = default;

  static SegmentInfo deserialize(std::span<const std::byte> data) {
    SegmentInfo info;
    if (data.size() < 24) return info;
    std::memcpy(&info.addr, data.data(), 8);
    std::memcpy(&info.size, data.data() + 8, 8);
    std::memcpy(&info.rkey, data.data() + 16, 8);
    return info;
  }
};

/// Reduction operators (shmem_..._to_all flavours).
enum class ReduceOp : std::uint8_t { kSum, kMin, kMax, kProd };

/// Comparison operators for shmem_wait_until.
enum class WaitCmp : std::uint8_t { kEq, kNe, kGt, kGe, kLt, kLe };

}  // namespace odcm::shmem
