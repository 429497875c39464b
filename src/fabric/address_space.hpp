// Simulated per-PE address space.
//
// Every PE owns one or more byte buffers (its symmetric heap, bounce
// buffers, ...) that are addressable through simulated virtual addresses.
// A fixed per-space VA base keeps addresses unique job-wide so that a
// misdirected RDMA shows up as a protection error rather than silent
// corruption.
//
// The bytes live in an anonymous, page-rounded mapping, so a page enters
// the host's resident set only when the PE first writes it (DESIGN.md
// §5.22): a job with thousands of mostly idle heaps costs what it touches.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>

#include "fabric/types.hpp"

namespace odcm::fabric {

/// A contiguous simulated memory segment owned by one PE.
class AddressSpace {
 public:
  /// `va_base` must be unique per space across the job and non-zero. The
  /// `size` bytes read as zero; a size of 0 maps nothing. Throws
  /// `std::bad_alloc` if the mapping fails.
  AddressSpace(RankId owner, VirtAddr va_base, std::size_t size);
  ~AddressSpace();

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  [[nodiscard]] RankId owner() const noexcept { return owner_; }
  [[nodiscard]] VirtAddr base() const noexcept { return base_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// True if [va, va+len) lies inside this space.
  [[nodiscard]] bool contains(VirtAddr va, std::size_t len) const noexcept {
    return va >= base_ && va + len <= base_ + size_ && va + len >= va;
  }

  /// View of [va, va+len); throws if out of range.
  [[nodiscard]] std::span<std::byte> window(VirtAddr va, std::size_t len) {
    if (!contains(va, len)) {
      throw std::out_of_range("AddressSpace: window out of range");
    }
    return bytes().subspan(va - base_, len);
  }

  [[nodiscard]] std::span<const std::byte> window(VirtAddr va,
                                                  std::size_t len) const {
    if (!contains(va, len)) {
      throw std::out_of_range("AddressSpace: window out of range");
    }
    return bytes().subspan(va - base_, len);
  }

  /// Whole-buffer access (local use by the owning PE).
  [[nodiscard]] std::span<std::byte> bytes() noexcept {
    return {data_, size_};
  }
  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return {data_, size_};
  }

 private:
  RankId owner_;
  VirtAddr base_;
  std::size_t size_;
  std::size_t mapped_ = 0;  ///< `size_` rounded up to whole pages.
  std::byte* data_ = nullptr;
};

/// Conventional VA-base layout: PE `rank` gets segment `segment` based at
/// ((rank + 1) << 40) + (segment << 32). Keeps spaces disjoint and non-null.
constexpr VirtAddr make_va_base(RankId rank, std::uint32_t segment = 0) {
  return (static_cast<VirtAddr>(rank) + 1) << 40 |
         static_cast<VirtAddr>(segment) << 32;
}

}  // namespace odcm::fabric
