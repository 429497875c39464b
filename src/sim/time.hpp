// Virtual-time definitions for the discrete-event engine.
//
// All simulated latencies and timestamps in the library are expressed in
// nanoseconds of virtual time (`sim::Time`). Helper literals keep cost-model
// constants readable, e.g. `2 * usec` for a 2 microsecond HCA overhead.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace odcm::sim {

/// Virtual time in nanoseconds since the start of the simulation.
using Time = std::uint64_t;

/// Signed duration in nanoseconds, for arithmetic that may go negative.
using TimeDelta = std::int64_t;

inline constexpr Time nsec = 1;
inline constexpr Time usec = 1000 * nsec;
inline constexpr Time msec = 1000 * usec;
inline constexpr Time sec = 1000 * msec;

/// Convert virtual time to floating-point seconds (for reporting).
constexpr double to_seconds(Time t) { return static_cast<double>(t) * 1e-9; }

/// Convert virtual time to floating-point microseconds (for reporting).
constexpr double to_usec(Time t) { return static_cast<double>(t) * 1e-3; }

/// Throw `std::invalid_argument` naming `field` unless `bytes_per_ns` is
/// finite and positive. A rate divides byte counts into a `Time`, and a
/// zero, negative or non-finite one has no defined cast to that unsigned
/// type.
inline void require_rate(double bytes_per_ns, const std::string& field) {
  if (!std::isfinite(bytes_per_ns) || bytes_per_ns <= 0) {
    throw std::invalid_argument(field + " must be finite and > 0");
  }
}

}  // namespace odcm::sim
