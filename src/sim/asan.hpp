// AddressSanitizer detection and manual poisoning.
//
// Memory the simulator manages itself (pooled coroutine frames, the slack
// of a page-rounded address-space mapping) is not known to ASan as
// allocated or free. Poisoning it keeps a stray access reported; without
// ASan both calls compile to nothing.
#pragma once

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__)
#define ODCM_SIM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ODCM_SIM_ASAN 1
#endif
#endif
#if defined(ODCM_SIM_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace odcm::sim {

/// Mark [memory, memory + bytes) unaddressable under ASan.
inline void asan_poison([[maybe_unused]] void* memory,
                        [[maybe_unused]] std::size_t bytes) noexcept {
#if defined(ODCM_SIM_ASAN)
  ASAN_POISON_MEMORY_REGION(memory, bytes);
#endif
}

/// Mark [memory, memory + bytes) addressable again under ASan.
inline void asan_unpoison([[maybe_unused]] void* memory,
                          [[maybe_unused]] std::size_t bytes) noexcept {
#if defined(ODCM_SIM_ASAN)
  ASAN_UNPOISON_MEMORY_REGION(memory, bytes);
#endif
}

}  // namespace odcm::sim
