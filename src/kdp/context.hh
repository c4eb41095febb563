/**
 * @file
 * Kernel execution contexts.
 *
 * A kernel variant is a C++ function executed once per work-group.  It
 * receives a GroupCtx through which all device memory traffic, ALU
 * work, branches, barriers, and scratchpad allocation flow; the
 * context performs the real data movement *and* records a trace the
 * device timing models replay.
 *
 * Work-items are identified by their linear local id ("lane").  GPU
 * style kernels iterate lanes with forEachItem(); CPU schedule
 * variants write their own loops over lanes and kernel loops in the
 * order the schedule dictates, which is exactly what the trace then
 * reflects.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "support/logging.hh"

#include "args.hh"
#include "buffer.hh"
#include "trace.hh"

namespace dysel {
namespace kdp {

class GroupCtx;

/**
 * Handle to a per-work-group scratchpad array of T.
 *
 * Alloc'd from the group's scratch arena; accesses are traced with
 * MemSpace::Scratchpad.
 */
template <typename T>
class Local
{
  public:
    Local() = default;

    /** Number of elements. */
    std::uint64_t size() const { return count; }

    // Access helpers are defined after GroupCtx below.
    inline T get(GroupCtx &ctx, std::uint64_t i, std::uint32_t lane) const;
    inline void set(GroupCtx &ctx, std::uint64_t i, T v,
                    std::uint32_t lane) const;

  private:
    friend class GroupCtx;
    std::uint64_t offset = 0;   ///< byte offset into the scratch arena
    std::uint64_t count = 0;
};

/**
 * Per-work-group execution context; the kernel's window onto the
 * device.
 */
class GroupCtx
{
  public:
    /**
     * The lane counters and scratchpad arena live in @p trace's
     * recording scratch and restart at zero here, so a context on a
     * warm trace allocates nothing.  Only the newest context over a
     * trace may record.
     *
     * @param group_id    this group's id in the variant's own grid
     * @param group_size  work-items per group (linear)
     * @param wa_factor   workload units this group covers
     * @param trace       recording target (reset by the caller)
     */
    GroupCtx(std::uint64_t group_id, std::uint32_t group_size,
             std::uint64_t wa_factor, WorkGroupTrace *trace)
        : groupId(group_id), groupSz(group_size), waf(wa_factor),
          rec(trace)
    {
        if (group_size > maxGroupSize)
            support::panic("group size %u does not fit the trace's lane "
                           "field (max %u)", group_size, maxGroupSize);
        clearLanes(rec->laneSeq, group_size);
        clearLanes(rec->laneBranchSeq, group_size);
        seqs = rec->laneSeq.data();
        branchSeqs = rec->laneBranchSeq.data();
    }

    /** This group's id within the variant's grid. */
    std::uint64_t group() const { return groupId; }

    /**
     * Re-address this context in place as @p group_id: its lane
     * counters and scratchpad arena restart at zero, while the trace
     * keeps recording.  Fused launches call this between member
     * groups, so each member kernel runs on a context whose group id
     * (and hence unitBase/globalId) is local to the member's own grid,
     * exactly as a fresh context would be, without building one.
     */
    void
    restart(std::uint64_t group_id)
    {
        groupId = group_id;
        clearLanes(seqs, groupSz);
        clearLanes(branchSeqs, groupSz);
        arenaBytes = 0;
    }

    /** Work-items per group. */
    std::uint32_t groupSize() const { return groupSz; }

    /** Workload units per group (the variant's work assignment factor). */
    std::uint64_t waFactor() const { return waf; }

    /** First workload unit this group covers. */
    std::uint64_t unitBase() const { return groupId * waf; }

    /** Global linear id of @p lane. */
    std::uint64_t
    globalId(std::uint32_t lane) const
    {
        return groupId * groupSz + lane;
    }

    /** Traced load of element @p idx of @p buf by @p lane. */
    template <typename T>
    T
    load(const Buffer<T> &buf, std::uint64_t idx, std::uint32_t lane)
    {
        record(buf.addrOf(idx), sizeof(T), buf.space(), lane, false, false);
        return buf.at(idx);
    }

    /** Traced store. */
    template <typename T>
    void
    store(Buffer<T> &buf, std::uint64_t idx, T v, std::uint32_t lane)
    {
        record(buf.addrOf(idx), sizeof(T), buf.space(), lane, true, false);
        buf.at(idx) = v;
    }

    /**
     * Traced wide load of @p count consecutive elements starting at
     * @p idx (a float4-style vector load: one memory transaction).
     */
    template <typename T>
    void
    loadSpan(const Buffer<T> &buf, std::uint64_t idx, std::uint32_t count,
             std::uint32_t lane, T *out)
    {
        const std::uint64_t bytes = std::uint64_t{count} * sizeof(T);
        if (bytes > maxAccessBytes)
            support::panic("loadSpan of %llu bytes does not fit the "
                           "trace's width field (max %u)",
                           static_cast<unsigned long long>(bytes),
                           maxAccessBytes);
        record(buf.addrOf(idx), static_cast<std::uint32_t>(bytes),
               buf.space(), lane, false, false);
        for (std::uint32_t i = 0; i < count; ++i)
            out[i] = buf.at(idx + i);
    }

    /** Traced atomic add; returns the old value. */
    template <typename T>
    T
    atomicAdd(Buffer<T> &buf, std::uint64_t idx, T v, std::uint32_t lane)
    {
        record(buf.addrOf(idx), sizeof(T), buf.space(), lane, true, true);
        T old = buf.at(idx);
        buf.at(idx) = old + v;
        return old;
    }

    /** Charge @p n ALU operations to @p lane. */
    void
    flops(std::uint32_t lane, std::uint64_t n)
    {
        checkLane(lane);
        rec->laneFlops[lane] += n;
    }

    /** Record a branch outcome for divergence analysis. */
    void
    branch(std::uint32_t lane, bool taken)
    {
        checkLane(lane);
        const std::uint32_t seq = branchSeqs[lane]++;
        rec->branches.push_back({lane, seq, taken});
        std::uint32_t &rows = rec->laneBranchRows[lane];
        rows = std::max(rows, seq + 1);
    }

    /** Work-group barrier. */
    void barrier() { ++rec->barriers; }

    /**
     * Allocate a zero-filled scratchpad array of @p n elements of T
     * for this group.
     */
    template <typename T>
    Local<T>
    allocLocal(std::uint64_t n)
    {
        Local<T> l;
        l.offset = arenaBytes;
        l.count = n;
        arenaBytes += n * sizeof(T);
        if (rec->scratch.size() < arenaBytes)
            rec->scratch.resize(arenaBytes);
        std::memset(rec->scratch.data() + l.offset, 0, n * sizeof(T));
        rec->scratchBytes = arenaBytes;
        return l;
    }

    /** Scratchpad bytes allocated so far. */
    std::uint64_t scratchBytes() const { return arenaBytes; }

    /** @name Scratchpad access plumbing used by Local<T>. */
    /// @{
    template <typename T>
    T
    localLoad(const Local<T> &l, std::uint64_t i, std::uint32_t lane)
    {
        checkLocal(l, i);
        record(scratchBase + l.offset + i * sizeof(T), sizeof(T),
               MemSpace::Scratchpad, lane, false, false);
        T v;
        std::memcpy(&v, rec->scratch.data() + l.offset + i * sizeof(T),
                    sizeof(T));
        return v;
    }

    template <typename T>
    void
    localStore(const Local<T> &l, std::uint64_t i, T v, std::uint32_t lane)
    {
        checkLocal(l, i);
        record(scratchBase + l.offset + i * sizeof(T), sizeof(T),
               MemSpace::Scratchpad, lane, true, false);
        std::memcpy(rec->scratch.data() + l.offset + i * sizeof(T), &v,
                    sizeof(T));
    }
    /// @}

  private:
    /// Virtual base address of scratchpad arenas; disjoint from the
    /// global buffer allocator's range by construction.
    static constexpr std::uint64_t scratchBase = 0x0008'0000'0000'0000ull;

    void
    checkLane(std::uint32_t lane) const
    {
        if (lane >= groupSz)
            support::panic("lane %u out of range (group size %u)",
                           lane, groupSz);
    }

    template <typename T>
    void
    checkLocal(const Local<T> &l, std::uint64_t i) const
    {
        if (i >= l.count)
            support::panic("scratchpad access out of bounds: %llu >= %llu",
                           (unsigned long long)i,
                           (unsigned long long)l.count);
    }

    /**
     * Append one access and raise its lane's row count.  Rows take the
     * max because restart() sets the counters back to 0.
     */
    void
    record(std::uint64_t addr, std::uint32_t bytes, MemSpace space,
           std::uint32_t lane, bool write, bool atomic)
    {
        checkLane(lane);
        const std::uint32_t seq = seqs[lane]++;
        rec->accesses.push_back(
            packAccess(addr, lane, seq, bytes, space, write, atomic));
        std::uint32_t &rows = rec->laneAccessRows[lane];
        rows = std::max(rows, seq + 1);
    }

    std::uint64_t groupId;
    std::uint32_t groupSz;
    std::uint64_t waf;
    WorkGroupTrace *rec;
    std::uint32_t *seqs;       ///< rec->laneSeq
    std::uint32_t *branchSeqs; ///< rec->laneBranchSeq
    std::uint64_t arenaBytes = 0; ///< this context's share of rec->scratch
};

template <typename T>
T
Local<T>::get(GroupCtx &ctx, std::uint64_t i, std::uint32_t lane) const
{
    return ctx.localLoad(*this, i, lane);
}

template <typename T>
void
Local<T>::set(GroupCtx &ctx, std::uint64_t i, T v, std::uint32_t lane) const
{
    ctx.localStore(*this, i, v, lane);
}

/**
 * Convenience wrapper binding a GroupCtx to one lane, for kernels
 * written in the one-body-per-work-item style.
 */
class ItemCtx
{
  public:
    ItemCtx(GroupCtx &g, std::uint32_t lane) : ctx(g), laneId(lane) {}

    std::uint32_t localId() const { return laneId; }
    std::uint64_t globalId() const { return ctx.globalId(laneId); }
    GroupCtx &group() const { return ctx; }

    template <typename T>
    T load(const Buffer<T> &b, std::uint64_t i) const
    {
        return ctx.load(b, i, laneId);
    }

    template <typename T>
    void store(Buffer<T> &b, std::uint64_t i, T v) const
    {
        ctx.store(b, i, v, laneId);
    }

    template <typename T>
    T atomicAdd(Buffer<T> &b, std::uint64_t i, T v) const
    {
        return ctx.atomicAdd(b, i, v, laneId);
    }

    void flops(std::uint64_t n) const { ctx.flops(laneId, n); }
    void branch(bool taken) const { ctx.branch(laneId, taken); }

    template <typename T>
    T localGet(const Local<T> &l, std::uint64_t i) const
    {
        return l.get(ctx, i, laneId);
    }

    template <typename T>
    void localSet(const Local<T> &l, std::uint64_t i, T v) const
    {
        l.set(ctx, i, v, laneId);
    }

  private:
    GroupCtx &ctx;
    std::uint32_t laneId;
};

/**
 * Run @p body once per work-item of the group, in lane order (the
 * lock-step GPU convention).
 */
template <typename Body>
void
forEachItem(GroupCtx &g, Body &&body)
{
    for (std::uint32_t lane = 0; lane < g.groupSize(); ++lane) {
        ItemCtx item(g, lane);
        body(item);
    }
}

} // namespace kdp
} // namespace dysel
