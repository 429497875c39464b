#include "fabric/address_space.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <limits>
#include <new>

#include "sim/asan.hpp"

namespace odcm::fabric {

namespace {

std::size_t page_bytes() noexcept {
  static const auto bytes = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return bytes;
}

}  // namespace

// An anonymous private mapping is zero-filled by the kernel and commits a
// page on its first write. `calloc` would give the same contents, but it
// skips its own zeroing only for memory fresh from the system, and whether
// a request gets such memory depends on the allocator's history (glibc's
// mmap threshold moves after frees).
AddressSpace::AddressSpace(RankId owner, VirtAddr va_base, std::size_t size)
    : owner_(owner), base_(va_base), size_(size) {
  if (va_base == 0) {
    throw std::invalid_argument("AddressSpace: va_base must be non-zero");
  }
  if (size == 0) return;
  const std::size_t page = page_bytes();
  if (size > std::numeric_limits<std::size_t>::max() - page) {
    throw std::bad_alloc();
  }
  mapped_ = (size + page - 1) / page * page;
  void* memory = ::mmap(nullptr, mapped_, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (memory == MAP_FAILED) throw std::bad_alloc();
  data_ = static_cast<std::byte*>(memory);
  // The page rounding leaves slack past `size_` that is readable and
  // writable to the hardware; keep an overrun into it reported.
  sim::asan_poison(data_ + size_, mapped_ - size_);
}

AddressSpace::~AddressSpace() {
  if (data_ == nullptr) return;
  sim::asan_unpoison(data_ + size_, mapped_ - size_);
  ::munmap(data_, mapped_);
}

}  // namespace odcm::fabric
