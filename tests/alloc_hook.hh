/**
 * @file
 * Heap-allocation counter for the zero-allocation tests.
 *
 * Replaces the global operator new / delete with malloc-backed ones
 * that count allocations on threads that opted in, so gtest internals
 * and other threads stay invisible.  The replacements are definitions:
 * include this header from exactly one source file of a test binary.
 */
#pragma once

// GCC pairs the replaced operator new against the library operator
// delete at inlined call sites and warns spuriously -- the
// replacement covers both sides.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

#include <cstdint>
#include <cstdlib>
#include <new>

namespace dysel {
namespace test {

/** Whether allocations on this thread are counted. */
inline thread_local bool countAllocs = false;

/** Allocations counted on this thread. */
inline thread_local std::uint64_t allocCount = 0;

/** Heap allocations @p fn makes on the calling thread. */
template <typename Fn>
std::uint64_t
allocationsOf(Fn &&fn)
{
    allocCount = 0;
    countAllocs = true;
    fn();
    countAllocs = false;
    return allocCount;
}

} // namespace test
} // namespace dysel

void *
operator new(std::size_t sz)
{
    if (dysel::test::countAllocs)
        ++dysel::test::allocCount;
    if (void *p = std::malloc(sz ? sz : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t sz)
{
    if (dysel::test::countAllocs)
        ++dysel::test::allocCount;
    if (void *p = std::malloc(sz ? sz : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
