/**
 * @file
 * Global allocation-counting hook for the zero-allocation steady
 * state tests. Linking alloc_hook.cc into a test binary replaces the
 * global operator new/delete with counting wrappers (except under
 * sanitizers, which own those symbols - the hook then reports itself
 * inactive and the tests skip).
 */

#ifndef TDP_TESTS_STREAM_ALLOC_HOOK_HH
#define TDP_TESTS_STREAM_ALLOC_HOOK_HH

#include <cstdint>

namespace tdp {
namespace testutil {

/** True when the counting operator new/delete pair is installed. */
bool allocationHookActive();

/** Allocations observed so far (monotonic; compare deltas). */
uint64_t allocationCount();

/** Largest single allocation (bytes) since the last reset. */
uint64_t largestAllocation();

/** Restart largestAllocation() from zero. */
void resetLargestAllocation();

} // namespace testutil
} // namespace tdp

#endif // TDP_TESTS_STREAM_ALLOC_HOOK_HH
