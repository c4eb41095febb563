#include "buffer.hh"

namespace dysel {
namespace kdp {

namespace {

/// Process-wide bump allocator for virtual device addresses.  4 KiB
/// alignment keeps allocations on distinct pages like a real driver.
std::atomic<std::uint64_t> g_nextAddr{0x1000};

} // namespace

BufferBase::BufferBase(std::uint64_t n, std::uint32_t elem_bytes,
                       const std::type_info &elem_type, MemSpace s,
                       std::string name)
    : base(allocAddr(n * elem_bytes)), count(n), elemTag(&elem_type),
      elemBytes(elem_bytes), memSpace(s), label(std::move(name))
{
}

std::uint64_t
BufferBase::allocAddr(std::uint64_t bytes)
{
    const std::uint64_t aligned = (bytes + 4095) & ~std::uint64_t{4095};
    return g_nextAddr.fetch_add(aligned + 4096,
                                std::memory_order_relaxed);
}

} // namespace kdp
} // namespace dysel
