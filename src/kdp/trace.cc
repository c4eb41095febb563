#include "trace.hh"

#include <numeric>

namespace dysel {
namespace kdp {

void
WorkGroupTrace::reset(std::uint32_t group_size)
{
    accesses.clear();
    branches.clear();
    clearLanes(laneFlops, group_size);
    clearLanes(laneAccessRows, group_size);
    clearLanes(laneBranchRows, group_size);
    barriers = 0;
    scratchBytes = 0;
}

std::uint64_t
WorkGroupTrace::totalFlops() const
{
    return std::accumulate(laneFlops.begin(), laneFlops.end(),
                           std::uint64_t{0});
}

std::uint64_t
WorkGroupTrace::countSpace(MemSpace space) const
{
    std::uint64_t n = 0;
    for (const auto &a : accesses)
        if (a.space == space)
            ++n;
    return n;
}

} // namespace kdp
} // namespace dysel
