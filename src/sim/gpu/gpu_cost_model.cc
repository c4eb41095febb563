#include "gpu_cost_model.hh"

#include <algorithm>
#include <span>
#include <vector>

#include "sim/op_groups.hh"

namespace dysel {
namespace sim {

GpuWgCost
gpuWorkGroupCost(const kdp::WorkGroupTrace &trace,
                 const kdp::VariantTraits &traits, std::uint32_t groupSize,
                 GpuSmState &sm, Cache &l2, const GpuCostParams &p)
{
    const unsigned w = p.warpSize;
    const unsigned num_warps = (groupSize + w - 1) / w;

    // Reused across work-groups; one per thread keeps device workers
    // independent.
    thread_local struct
    {
        OpGroups ops;
        std::vector<double> warpThruput;
        std::vector<double> warpLatency;
    } scratch;
    OpGroups &ops = scratch.ops;
    std::vector<double> &warp_thruput = scratch.warpThruput;
    std::vector<double> &warp_latency = scratch.warpLatency;
    warp_thruput.assign(num_warps, 0.0);
    warp_latency.assign(num_warps, 0.0);

    // Walk instructions in first-touch order for the caches.
    ops.build(trace, w);
    ops.forEachOp([&](std::uint32_t first, std::span<std::uint64_t> addrs,
                      bool any_atomic) {
        const auto &a = trace.accesses[first];
        const unsigned warp = static_cast<unsigned>(a.lane / w);
        const std::size_t members = addrs.size();
        // Each space below works on the op's sorted addresses; lanes
        // usually access in ascending order.
        if (!std::is_sorted(addrs.begin(), addrs.end()))
            std::sort(addrs.begin(), addrs.end());

        double thruput = p.issueOp;
        double latency = 0.0;
        // Start address of each distinct @p unit-aligned block the
        // sorted addresses touch, ascending, kept in place at the front
        // of addrs.  An address less than @p unit past the last start
        // lies in the same block, so only a new block pays a division.
        auto blockStarts = [&](std::uint64_t unit) {
            std::size_t n = 0;
            for (const std::uint64_t addr : addrs)
                if (n == 0 || addr - addrs[n - 1] >= unit)
                    addrs[n++] = addr - addr % unit;
            return addrs.first(n);
        };
        switch (a.space) {
          case kdp::MemSpace::Global: {
            bool all_hit = true;
            for (std::uint64_t seg : blockStarts(p.segmentBytes)) {
                const bool hit = l2.access(seg);
                all_hit &= hit;
                thruput += hit ? p.txHitCost : p.txCost;
            }
            latency += all_hit ? p.l2HitLatency : p.memLatency;
            if (any_atomic)
                thruput += p.atomicPerLane * static_cast<double>(members);
            break;
          }
          case kdp::MemSpace::Texture: {
            bool all_hit = true;
            for (std::uint64_t seg : blockStarts(32)) {
                const bool hit = sm.texCache.access(seg);
                all_hit &= hit;
                thruput += p.texHit;
                if (!hit)
                    thruput += p.texMissExtra;
            }
            if (!all_hit)
                latency += p.texMissLatency;
            break;
          }
          case kdp::MemSpace::Scratchpad: {
            // Bank conflicts: 32 four-byte banks; the op serializes
            // into as many rounds as the most contended bank.
            unsigned bank_count[32] = {};
            unsigned worst = 1;
            for (std::uint64_t addr : blockStarts(1))
                worst = std::max(worst, ++bank_count[(addr / 4) % 32]);
            thruput += p.scratchAccess
                       + static_cast<double>(worst - 1)
                             * p.bankConflictExtra;
            break;
          }
          case kdp::MemSpace::Constant:
            thruput += p.constCost
                       * static_cast<double>(blockStarts(1).size());
            break;
        }
        warp_thruput[warp] += thruput;
        warp_latency[warp] += latency;
    });

    // Divergent branches serialize both sides.
    ops.forEachDivergent(trace, w, [&](std::uint32_t warp) {
        warp_thruput[warp] += p.divergentBranch;
    });

    // Lock-step ALU: a warp is as slow as its busiest lane.
    for (unsigned warp = 0; warp < num_warps; ++warp) {
        std::uint64_t worst = 0;
        const std::uint32_t lo = warp * w;
        const std::uint32_t hi =
            std::min<std::uint32_t>(groupSize, lo + w);
        for (std::uint32_t lane = lo; lane < hi; ++lane)
            worst = std::max(worst, trace.laneFlops[lane]);
        warp_thruput[warp] += static_cast<double>(worst) * p.aluOp;
    }

    GpuWgCost cost;
    for (unsigned warp = 0; warp < num_warps; ++warp) {
        cost.throughputCycles += warp_thruput[warp];
        cost.latencyCycles += warp_latency[warp];
    }
    // Outstanding loads overlap within a warp (memory-level
    // parallelism); software prefetch overlaps part of what remains.
    cost.latencyCycles /= p.mlpFactor;
    if (traits.softwarePrefetch)
        cost.latencyCycles *= p.prefetchLatencyFactor;
    // Warps of one block dual-issue across the schedulers.
    const double overlap =
        std::min<double>(num_warps, p.warpSchedulers);
    cost.throughputCycles /= overlap;
    cost.latencyCycles /= overlap;
    cost.throughputCycles +=
        static_cast<double>(trace.barriers) * p.barrierCost;
    return cost;
}

} // namespace sim
} // namespace dysel
