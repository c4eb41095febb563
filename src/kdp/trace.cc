#include "trace.hh"

#include <numeric>

namespace dysel {
namespace kdp {

void
WorkGroupTrace::reset(std::uint32_t group_size)
{
    accesses.clear();
    branches.clear();
    laneFlops.assign(group_size, 0);
    laneAccessRows.assign(group_size, 0);
    laneBranchRows.assign(group_size, 0);
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
