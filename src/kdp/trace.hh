/**
 * @file
 * Dynamic execution traces.
 *
 * A kernel executes for real; the context records every memory access,
 * branch outcome, and bulk ALU-op count into a WorkGroupTrace.  Device
 * timing models replay the trace to charge simulated cycles (cache
 * simulation on CPU, coalescing and divergence analysis on GPU).  The
 * trace is per-work-group and reused across work-groups to bound
 * memory.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "mem_space.hh"

namespace dysel {
namespace kdp {

/**
 * One dynamic memory access, in execution order.
 *
 * @c seq counts each lane's accesses densely from 0 (GroupCtx keeps
 * one counter per lane; a fused launch hands each member a fresh
 * context, so the counters restart per member).  Either way a lane's
 * largest seq is below its access count, so the timing models' op
 * table -- max(seq) + 1 rows per lane group -- never outgrows the
 * trace.  sim/op_groups.hh relies on this and panics on a trace that
 * breaks it; BranchEvent::seq follows the same rule.
 */
struct MemAccess
{
    std::uint64_t addr;     ///< virtual device address
    std::uint32_t lane;     ///< linear work-item id within the group
    std::uint32_t seq;      ///< per-lane access sequence number
    std::uint16_t bytes;    ///< access width
    MemSpace space;         ///< which memory the access targets
    bool write;             ///< store (or atomic RMW)
    bool atomic;            ///< atomic operation
};

/** One dynamic branch outcome (used for divergence analysis). */
struct BranchEvent
{
    std::uint32_t lane;     ///< work-item that evaluated the branch
    std::uint32_t seq;      ///< per-lane branch sequence number
    bool taken;             ///< outcome
};

/**
 * Everything recorded while one work-group of one kernel variant
 * executed.
 */
struct WorkGroupTrace
{
    /** Memory accesses in actual execution order. */
    std::vector<MemAccess> accesses;

    /** Branch outcomes in execution order. */
    std::vector<BranchEvent> branches;

    /** ALU-op count per lane (indexed by linear local id). */
    std::vector<std::uint64_t> laneFlops;

    /** Number of work-group barriers executed. */
    std::uint32_t barriers = 0;

    /** Bytes of scratchpad allocated by the group. */
    std::uint64_t scratchBytes = 0;

    /** Clear all recordings and size lane arrays for @p group_size. */
    void reset(std::uint32_t group_size);

    /** Sum of per-lane ALU ops. */
    std::uint64_t totalFlops() const;

    /** Number of recorded accesses to @p space. */
    std::uint64_t countSpace(MemSpace space) const;
};

} // namespace kdp
} // namespace dysel
