#include "gpu_cost_model.hh"

#include <algorithm>
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
        std::vector<std::uint64_t> addrs;
        std::vector<double> warpThruput;
        std::vector<double> warpLatency;
    } scratch;
    OpGroups &ops = scratch.ops;
    std::vector<std::uint64_t> &addrs = scratch.addrs;
    std::vector<double> &warp_thruput = scratch.warpThruput;
    std::vector<double> &warp_latency = scratch.warpLatency;
    warp_thruput.assign(num_warps, 0.0);
    warp_latency.assign(num_warps, 0.0);

    // Walk instructions in first-touch order for the caches.
    ops.build(trace.accesses, w);
    for (std::uint32_t key : ops.firstTouch()) {
        const auto members = ops.members(key);
        const auto &first = trace.accesses[members[0]];
        const unsigned warp = first.lane / w;
        // Each space below works on the op's sorted addresses; lanes
        // usually access in ascending order.
        addrs.clear();
        for (std::uint32_t m : members)
            addrs.push_back(trace.accesses[m].addr);
        if (!std::is_sorted(addrs.begin(), addrs.end()))
            std::sort(addrs.begin(), addrs.end());

        double thruput = p.issueOp;
        double latency = 0.0;
        // Distinct values of addr / @p unit over the sorted addresses,
        // in ascending order, kept in place at the front of addrs.
        auto distinctUnits = [&](std::uint64_t unit) {
            if (unit > 1)
                for (std::uint64_t &addr : addrs)
                    addr /= unit;
            addrs.erase(std::unique(addrs.begin(), addrs.end()),
                        addrs.end());
        };
        switch (first.space) {
          case kdp::MemSpace::Global: {
            bool any_atomic = false;
            for (std::uint32_t m : members)
                any_atomic |= trace.accesses[m].atomic;
            distinctUnits(p.segmentBytes);
            bool all_hit = true;
            for (std::uint64_t s : addrs) {
                const bool hit = l2.access(s * p.segmentBytes);
                all_hit &= hit;
                thruput += hit ? p.txHitCost : p.txCost;
            }
            latency += all_hit ? p.l2HitLatency : p.memLatency;
            if (any_atomic)
                thruput += p.atomicPerLane
                           * static_cast<double>(members.size());
            break;
          }
          case kdp::MemSpace::Texture: {
            distinctUnits(32);
            bool all_hit = true;
            for (std::uint64_t s : addrs) {
                const bool hit = sm.texCache.access(s * 32);
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
            distinctUnits(1);
            unsigned bank_count[32] = {};
            unsigned worst = 1;
            for (std::uint64_t addr : addrs)
                worst = std::max(worst, ++bank_count[(addr / 4) % 32]);
            thruput += p.scratchAccess
                       + static_cast<double>(worst - 1)
                             * p.bankConflictExtra;
            break;
          }
          case kdp::MemSpace::Constant:
            distinctUnits(1);
            thruput += p.constCost * static_cast<double>(addrs.size());
            break;
        }
        warp_thruput[warp] += thruput;
        warp_latency[warp] += latency;
    }

    // Divergent branches serialize both sides.
    ops.forEachDivergent(trace.branches, w, [&](std::uint32_t warp) {
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
