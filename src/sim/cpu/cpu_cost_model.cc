#include "cpu_cost_model.hh"

#include <algorithm>
#include <span>

#include "sim/op_groups.hh"

namespace dysel {
namespace sim {

namespace {

/** Cost of one scalar access through the L1/L2/L3 hierarchy. */
double
hierarchyCost(std::uint64_t addr, CpuCoreState &core, Cache &l3,
              const CpuCostParams &p)
{
    if (core.l1.access(addr))
        return p.l1Hit;
    if (core.l2.access(addr))
        return p.l2Hit;
    if (l3.access(addr))
        return p.l3Hit;
    return p.memAccess;
}

/** Scalar replay: every access pays its own hierarchy cost. */
double
scalarCost(const kdp::WorkGroupTrace &trace, CpuCoreState &core, Cache &l3,
           const CpuCostParams &p)
{
    double cycles = 0.0;
    for (const auto &a : trace.accesses) {
        cycles += p.memIssue + hierarchyCost(a.addr, core, l3, p);
        if (a.space == kdp::MemSpace::Scratchpad)
            cycles += p.scratchLowerExtra;
    }
    cycles += static_cast<double>(trace.totalFlops()) * p.aluOp;
    return cycles;
}

/**
 * Vectorized replay.  Accesses with the same per-lane sequence number
 * inside a group of @p w adjacent lanes form one SIMD memory op:
 * contiguous ops touch the hierarchy once per distinct line,
 * non-contiguous ops pay every element plus a gather penalty.
 */
double
vectorCost(const kdp::WorkGroupTrace &trace,
           const kdp::VariantTraits &traits, CpuCoreState &core, Cache &l3,
           const CpuCostParams &p)
{
    const unsigned w = traits.vectorWidth;
    // Reused across work-groups; one per thread keeps device workers
    // independent.
    thread_local OpGroups ops;

    // Emit machine ops in first-touch order to approximate the real
    // interleaving for the cache model.
    ops.build(trace, w);
    double cycles = 0.0;
    ops.forEachOp([&](std::uint32_t first, std::span<std::uint64_t> addrs,
                      bool) {
        const auto &a = trace.accesses[first];
        if (a.space == kdp::MemSpace::Scratchpad)
            cycles += p.scratchLowerExtra
                      * static_cast<double>(addrs.size());
        // Lanes usually access in ascending order.
        if (!std::is_sorted(addrs.begin(), addrs.end()))
            std::sort(addrs.begin(), addrs.end());

        bool broadcast = true;
        for (std::size_t k = 1; broadcast && k < addrs.size(); ++k)
            broadcast = addrs[k] == addrs[0];

        bool contiguous = addrs.size() == w;
        for (std::size_t k = 1; contiguous && k < addrs.size(); ++k)
            contiguous = addrs[k] - addrs[k - 1] == a.bytes;

        if (broadcast) {
            // All lanes read the same element: one scalar load plus a
            // register splat.
            cycles += p.memIssue + hierarchyCost(addrs[0], core, l3, p);
        } else if (contiguous) {
            // One wide access: touch each distinct line once, at the
            // first address in it.  An address less than a line past
            // the current line's start lies in that line.
            const std::uint64_t line = core.l1.lineSize();
            double worst = 0.0;
            std::uint64_t line_start = 0;
            for (std::size_t k = 0; k < addrs.size(); ++k) {
                if (k > 0 && addrs[k] - line_start < line)
                    continue;
                line_start = addrs[k] - addrs[k] % line;
                worst = std::max(worst,
                                 hierarchyCost(addrs[k], core, l3, p));
            }
            cycles += p.memIssue + worst;
        } else {
            // Gather/scatter: every element pays, plus packing
            // overhead that grows with the SIMD width.
            double sum = 0.0;
            for (std::uint64_t addr : addrs)
                sum += hierarchyCost(addr, core, l3, p);
            cycles += p.memIssue * addrs.size()
                      + sum * (p.gatherFactor
                               + p.gatherWidthFactor
                                     * static_cast<double>(w));
        }
    });

    // Divergence: branch groups with mixed outcomes cost masking work
    // proportional to the SIMD width.
    std::uint64_t divergent = 0;
    ops.forEachDivergent(trace, w,
                         [&](std::uint32_t) { ++divergent; });
    // Masking waste grows superlinearly with the SIMD width: the
    // number of divergent groups roughly halves when the width
    // doubles, so a linear-in-w cost would be width-invariant; the
    // quadratic term models the growing fraction of wasted lanes per
    // divergent region.
    cycles += static_cast<double>(divergent) * p.divergeMaskCost
              * static_cast<double>(w) * static_cast<double>(w) / 4.0;

    // ALU work shrinks by the vector width.
    cycles += static_cast<double>(trace.totalFlops()) * p.aluOp
              / static_cast<double>(w);
    return cycles;
}

} // namespace

double
cpuWorkGroupCycles(const kdp::WorkGroupTrace &trace,
                   const kdp::VariantTraits &traits, CpuCoreState &core,
                   Cache &l3, const CpuCostParams &params)
{
    double cycles = traits.vectorWidth <= 1
                        ? scalarCost(trace, core, l3, params)
                        : vectorCost(trace, traits, core, l3, params);
    if (traits.softwarePrefetch)
        cycles += params.prefetchOverhead
                  * static_cast<double>(trace.accesses.size());
    return cycles;
}

} // namespace sim
} // namespace dysel
