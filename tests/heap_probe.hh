/**
 * @file
 * Replacement global operator new / delete that count the heap a test
 * binary holds: live bytes (malloc's usable size of each block) and the
 * number of allocations. Include from exactly one translation unit of a
 * test binary; every other binary keeps the standard allocator.
 *
 * Aligned (std::align_val_t) forms are left to the library: they neither
 * reach these functions nor are counted.
 */

#ifndef LIMITLESS_TESTS_HEAP_PROBE_HH
#define LIMITLESS_TESTS_HEAP_PROBE_HH

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace heap_probe
{

inline std::atomic<std::int64_t> liveBytes{0};
inline std::atomic<std::uint64_t> allocations{0};

inline void *
allocate(std::size_t n)
{
    void *p = std::malloc(n ? n : 1);
    if (p) {
        liveBytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                            std::memory_order_relaxed);
        allocations.fetch_add(1, std::memory_order_relaxed);
    }
    return p;
}

// GCC sees free() reach blocks from operator new once these inline into
// the operators below; they come from malloc(), so the pair matches.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
inline void
release(void *p) noexcept
{
    if (!p)
        return;
    liveBytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                        std::memory_order_relaxed);
    std::free(p);
}
#pragma GCC diagnostic pop

} // namespace heap_probe

void *
operator new(std::size_t n)
{
    if (void *p = heap_probe::allocate(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return heap_probe::allocate(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return heap_probe::allocate(n);
}

void operator delete(void *p) noexcept { heap_probe::release(p); }
void operator delete[](void *p) noexcept { heap_probe::release(p); }
void operator delete(void *p, std::size_t) noexcept { heap_probe::release(p); }
void
operator delete[](void *p, std::size_t) noexcept
{
    heap_probe::release(p);
}
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    heap_probe::release(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    heap_probe::release(p);
}

#endif // LIMITLESS_TESTS_HEAP_PROBE_HH
