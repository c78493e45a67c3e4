// Simulated-time vocabulary.
//
// All protocol code measures time in integral microseconds of *virtual* time
// supplied by its Runtime.  Under the discrete-event engine this is the event
// clock; under the socket engine it is a steady clock.  Using a plain
// integral type (rather than std::chrono) keeps serialization and event-queue
// keys trivial, but the unit is fixed here in one place.
#pragma once

#include <cstdint>

namespace corona {

// Microseconds of virtual time since the start of the run.
using TimePoint = std::int64_t;

// Microseconds.
using Duration = std::int64_t;

constexpr Duration kMicrosecond = 1;
constexpr Duration kMillisecond = 1000;
constexpr Duration kSecond = 1000 * kMillisecond;

constexpr double to_ms(Duration d) { return static_cast<double>(d) / kMillisecond; }
constexpr double to_sec(Duration d) { return static_cast<double>(d) / kSecond; }

}  // namespace corona
