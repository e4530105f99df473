/**
 * @file
 * Counting global operator new/delete for the zero-allocation tests.
 *
 * Every overload (arrays, sized deallocation, over-aligned types)
 * routes through one atomic counter, so a test can assert that a
 * code path performed exactly zero heap allocations by comparing the
 * counter across the measured section. The largest single request
 * is tracked too, so a decoder test can bound what a corrupt length
 * field makes it allocate. Sanitizer builds provide
 * their own interposed operators; there the hook compiles out and
 * allocationHookActive() returns false.
 */

#include "alloc_hook.hh"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TDP_ALLOC_HOOK 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || \
    __has_feature(thread_sanitizer) || __has_feature(memory_sanitizer)
#define TDP_ALLOC_HOOK 0
#else
#define TDP_ALLOC_HOOK 1
#endif
#else
#define TDP_ALLOC_HOOK 1
#endif

namespace {

std::atomic<uint64_t> allocations{0};
std::atomic<uint64_t> largest{0};

#if TDP_ALLOC_HOOK
void *
countedAlloc(std::size_t size, std::size_t alignment)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    uint64_t seen = largest.load(std::memory_order_relaxed);
    while (size > seen &&
           !largest.compare_exchange_weak(seen, size,
                                          std::memory_order_relaxed)) {
    }
    if (size == 0)
        size = 1;
    void *ptr = nullptr;
    if (alignment > alignof(std::max_align_t)) {
        // aligned_alloc requires the size to be a multiple of the
        // alignment.
        const std::size_t rounded =
            (size + alignment - 1) / alignment * alignment;
        ptr = std::aligned_alloc(alignment, rounded);
    } else {
        ptr = std::malloc(size);
    }
    if (ptr == nullptr)
        throw std::bad_alloc();
    return ptr;
}
#endif

} // namespace

#if TDP_ALLOC_HOOK

void *
operator new(std::size_t size)
{
    return countedAlloc(size, 0);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size, 0);
}

void *
operator new(std::size_t size, std::align_val_t alignment)
{
    return countedAlloc(size, static_cast<std::size_t>(alignment));
}

void *
operator new[](std::size_t size, std::align_val_t alignment)
{
    return countedAlloc(size, static_cast<std::size_t>(alignment));
}

void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

#endif // TDP_ALLOC_HOOK

namespace tdp {
namespace testutil {

bool
allocationHookActive()
{
    return TDP_ALLOC_HOOK != 0;
}

uint64_t
allocationCount()
{
    return allocations.load(std::memory_order_relaxed);
}

uint64_t
largestAllocation()
{
    return largest.load(std::memory_order_relaxed);
}

void
resetLargestAllocation()
{
    largest.store(0, std::memory_order_relaxed);
}

} // namespace testutil
} // namespace tdp
