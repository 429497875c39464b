// Tests for the simulated address space: zero contents, bounds, and host
// memory committed only where a PE writes (DESIGN.md §5.22).
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "fabric/address_space.hpp"
#include "sim/asan.hpp"

namespace odcm::fabric {
namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;

std::size_t page_bytes() {
  return static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

/// This process's resident set in bytes (second field of /proc/self/statm).
/// Reads into a stack buffer: a heap allocation per call could itself
/// commit pages (ASan's quarantine hands out fresh memory each time).
std::size_t resident_bytes() {
  char text[128] = {};
  const int fd = ::open("/proc/self/statm", O_RDONLY);
  if (fd < 0) return 0;
  const ssize_t got = ::read(fd, text, sizeof(text) - 1);
  ::close(fd);
  if (got <= 0) return 0;
  unsigned long long total_pages = 0;
  unsigned long long resident_pages = 0;
  if (std::sscanf(text, "%llu %llu", &total_pages, &resident_pages) != 2) {
    return 0;
  }
  return static_cast<std::size_t>(resident_pages) * page_bytes();
}

TEST(AddressSpace, LargeSpaceCommitsOnlyTheTouchedPages) {
  constexpr std::size_t kBytes = 256 * kMiB;
  const std::size_t start = resident_bytes();
  ASSERT_GT(start, 0u) << "cannot read /proc/self/statm";
  std::optional<AddressSpace> space(std::in_place, 1, make_va_base(1),
                                    kBytes);
  const std::size_t constructed = resident_bytes();
  EXPECT_LT(constructed, start + kMiB);

  const std::span<const std::byte> bytes = std::as_const(*space).bytes();
  ASSERT_EQ(bytes.size(), kBytes);
  EXPECT_TRUE(std::all_of(bytes.begin(), bytes.end(),
                          [](std::byte b) { return b == std::byte{0}; }));

  const std::size_t before_write = resident_bytes();
  space->window(space->base() + kBytes / 2, 1)[0] = std::byte{0x5a};
  EXPECT_LE(resident_bytes(), before_write + 4 * page_bytes());
  EXPECT_EQ(std::as_const(*space).window(space->base() + kBytes / 2, 1)[0],
            std::byte{0x5a});

  space.reset();
  EXPECT_LT(resident_bytes(), start + kMiB);
}

TEST(AddressSpace, BoundsStopAtSizeNotAtThePageEnd) {
  const std::size_t size = 3 * page_bytes() + 5;
  AddressSpace space(2, make_va_base(2), size);
  const VirtAddr last = space.base() + size - 1;
  EXPECT_EQ(space.size(), size);
  EXPECT_TRUE(space.contains(last, 1));
  EXPECT_EQ(space.window(last, 1).size(), 1u);
  EXPECT_EQ(space.window(last, 1)[0], std::byte{0});
  EXPECT_FALSE(space.contains(last + 1, 1));
  EXPECT_THROW((void)space.window(last + 1, 1), std::out_of_range);
  EXPECT_THROW((void)space.window(last, 2), std::out_of_range);
  EXPECT_THROW((void)space.window(space.base() - 1, 1), std::out_of_range);
}

TEST(AddressSpace, EmptySpaceMapsNothing) {
  AddressSpace space(3, make_va_base(3), 0);
  EXPECT_EQ(space.size(), 0u);
  EXPECT_EQ(space.bytes().data(), nullptr);
  EXPECT_TRUE(space.window(space.base(), 0).empty());
  EXPECT_THROW((void)space.window(space.base(), 1), std::out_of_range);
}

TEST(AddressSpace, RejectsNullBase) {
  EXPECT_THROW(AddressSpace(1, 0, 64), std::invalid_argument);
}

#if defined(ODCM_SIM_ASAN)
TEST(AddressSpaceDeathTest, WriteIntoThePageSlackIsReportedUnderAsan) {
  const std::size_t size = page_bytes() + 5;
  AddressSpace space(4, make_va_base(4), size);
  std::byte* data = space.bytes().data();
  EXPECT_FALSE(__asan_address_is_poisoned(data + size - 1));
  EXPECT_TRUE(__asan_address_is_poisoned(data + size));
  EXPECT_TRUE(__asan_address_is_poisoned(data + 2 * page_bytes() - 1));
  EXPECT_DEATH(
      {
        volatile std::byte* slack = data + size;
        *slack = std::byte{1};
      },
      "AddressSanitizer");
}
#endif

}  // namespace
}  // namespace odcm::fabric
