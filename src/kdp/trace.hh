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

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "mem_space.hh"

namespace dysel {
namespace kdp {

/**
 * One dynamic memory access, in execution order: the address plus one
 * packed 64-bit word, 16 bytes in all.
 *
 * @c seq counts each lane's accesses densely from 0 (GroupCtx keeps
 * one counter per lane in WorkGroupTrace::laneSeq; a fused launch
 * re-addresses one context per member through GroupCtx::restart(),
 * which zeroes the counters, so they restart per member).  Either way
 * a lane's largest seq is below its access count, and the trace records
 * max(seq) + 1 per lane in WorkGroupTrace::laneAccessRows, so the
 * timing models' op table never outgrows the trace.  sim/op_groups.hh
 * relies on this and panics on a trace that breaks it; BranchEvent::seq
 * follows the same rule with WorkGroupTrace::laneBranchRows.
 *
 * GroupCtx panics rather than truncate a lane or width that does not
 * fit its field (maxGroupSize, maxAccessBytes).
 */
struct MemAccess
{
    std::uint64_t addr;          ///< virtual device address
    std::uint64_t lane : 16;     ///< linear work-item id within the group
    std::uint64_t seq : 32;      ///< per-lane access sequence number
    std::uint64_t bytes : 12;    ///< access width
    MemSpace space : 2;          ///< which memory the access targets
    bool write : 1;              ///< store (or atomic RMW)
    bool atomic : 1;             ///< atomic operation
};
static_assert(sizeof(MemAccess) == 16, "MemAccess must stay 16 bytes");

/**
 * A MemAccess built in registers.  Initializing the bit-fields one by
 * one in place makes GCC read back the half-written word (a stalled
 * store-to-load forward per record); this packs the word first and
 * stores it whole.  @p lane and @p bytes must fit their fields
 * (GroupCtx checks both).  The static_assert below pins the packing to
 * the bit-field layout.
 */
constexpr MemAccess
packAccess(std::uint64_t addr, std::uint32_t lane, std::uint32_t seq,
           std::uint32_t bytes, MemSpace space, bool write, bool atomic)
{
    struct Words
    {
        std::uint64_t addr;
        std::uint64_t packed;
    };
    return std::bit_cast<MemAccess>(Words{
        addr, std::uint64_t{lane} | std::uint64_t{seq} << 16
                  | std::uint64_t{bytes} << 48
                  | std::uint64_t{static_cast<std::uint8_t>(space)} << 60
                  | std::uint64_t{write} << 62
                  | std::uint64_t{atomic} << 63});
}
static_assert([] {
    constexpr MemAccess a = packAccess(7, 0xfffe, 0x89abcdef, 0xffd,
                                       MemSpace::Constant, false, true);
    return a.addr == 7 && a.lane == 0xfffe && a.seq == 0x89abcdef
           && a.bytes == 0xffd && a.space == MemSpace::Constant
           && !a.write && a.atomic;
}(), "packAccess must match MemAccess's bit-field layout");

/** Largest work-group whose lane ids fit MemAccess::lane. */
constexpr std::uint32_t maxGroupSize = 1u << 16;

/** Largest access width MemAccess::bytes holds. */
constexpr std::uint32_t maxAccessBytes = (1u << 12) - 1;

/**
 * Zero the @p n lane slots at @p lanes with fixed-size stores.  A
 * zeroing loop or a memset of variable length compiles to a library
 * call, which costs more than the few stores a small group needs; the
 * per-group and per-member paths clear lane state through this alone.
 * Whole 32-byte blocks cover n >= one block (the last one overlapping
 * its predecessor); a smaller n is the sum of at most three
 * power-of-two pieces.
 */
template <typename T>
inline void
clearLanes(T *lanes, std::uint32_t n)
{
    constexpr std::uint32_t block = 32 / sizeof(T);
    static_assert(block * sizeof(T) == 32, "lane slots must divide 32 bytes");
    if (n >= block) {
        for (std::uint32_t i = 0; i + block < n; i += block)
            std::memset(lanes + i, 0, 32);
        std::memset(lanes + n - block, 0, 32);
        return;
    }
#pragma GCC unroll 4
    for (std::uint32_t piece = block / 2; piece != 0; piece /= 2) {
        if (n & piece) {
            std::memset(lanes, 0, piece * sizeof(T));
            lanes += piece;
        }
    }
}

/**
 * Zero @p lanes as @p group_size slots.  A warm array of that size is
 * cleared in place; only a change of group size re-sizes it.
 */
template <typename T>
inline void
clearLanes(std::vector<T> &lanes, std::uint32_t group_size)
{
    if (lanes.size() != group_size) [[unlikely]]
        lanes.assign(group_size, T{});
    else
        clearLanes(lanes.data(), group_size);
}

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

    /** Per lane, max(seq) + 1 over its accesses (0 if none). */
    std::vector<std::uint32_t> laneAccessRows;

    /** Per lane, max(seq) + 1 over its branches (0 if none). */
    std::vector<std::uint32_t> laneBranchRows;

    /** Number of work-group barriers executed. */
    std::uint32_t barriers = 0;

    /** Bytes of scratchpad allocated by the group. */
    std::uint64_t scratchBytes = 0;

    /**
     * @name Recording scratch, not part of the recording
     * Storage GroupCtx borrows so that building a context does not
     * allocate once the trace is warm: the per-lane access and branch
     * counters (zeroed by each new context and by each
     * GroupCtx::restart()) and the scratchpad arena's bytes.  Only the
     * newest context over a trace may record.
     */
    /// @{
    std::vector<std::uint32_t> laneSeq;
    std::vector<std::uint32_t> laneBranchSeq;
    std::vector<char> scratch;
    /// @}

    /** Clear all recordings and size lane arrays for @p group_size. */
    void reset(std::uint32_t group_size);

    /** Sum of per-lane ALU ops. */
    std::uint64_t totalFlops() const;

    /** Number of recorded accesses to @p space. */
    std::uint64_t countSpace(MemSpace space) const;
};

} // namespace kdp
} // namespace dysel
