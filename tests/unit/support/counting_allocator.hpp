#pragma once

// Counting replacement for the global operator new/delete, for suites that
// assert zero-heap-allocation steady states.  Linking
// counting_allocator.cpp into a test binary replaces the allocator for the
// whole binary.  The replacement lives in its own translation unit so the
// optimizer never inlines its free() into a call site whose pointer came
// from an out-of-line operator new — the pairing GCC's
// -Wmismatched-new-delete reports at -O3.

#include <cstddef>

namespace tfmcc::test {

/// Global operator new calls (all forms) made so far in this process.
/// Not atomic: the counting suites are single-threaded and gtest does not
/// allocate concurrently with the measured regions.
std::size_t allocation_count();

}  // namespace tfmcc::test
