/**
 * @file
 * Allocation-free grouping of trace events into machine ops.
 *
 * Both timing models treat the events of one lane group (a SIMD vector
 * of adjacent work-items on the CPU, a warp on the GPU) that share a
 * per-lane sequence number as one machine op.  Keys (lane / w, seq)
 * map to a dense table: each lane group gets max(seq) + 1 rows -- the
 * largest of its lanes' recorded rows (WorkGroupTrace::laneAccessRows
 * or laneBranchRows) -- at a prefix-sum base offset, so the key is
 * base[laneGroup] + seq.  A per-call lane table holds each lane's base
 * and row count, so the per-event loops do one lookup and no division.
 *
 * Accesses group in two passes.  Pass 1 counts each op's members and
 * lists the ops in first-touch order (by their first event) with that
 * first event's index.  Pass 2 scatters every member's address into
 * storage laid out op after op in that order, and notes whether any
 * member is atomic.  The models then replay the ops in first-touch
 * order -- so the caches see the same access sequence as an
 * event-order walk -- over contiguous address spans.
 *
 * The per-lane sequence numbers are dense (kdp/trace.hh), so the table
 * never has more rows than the trace has events; a trace that breaks
 * this, or an event whose seq lies past its lane group's rows, is a
 * recording bug and panics.  Buffers are reused across calls and stop
 * allocating once they have grown to the largest trace seen.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "kdp/trace.hh"
#include "support/logging.hh"

namespace dysel {
namespace sim {

/** Reusable op table over one trace's accesses or branches. */
class OpGroups
{
  public:
    /** Group the accesses of @p trace into ops keyed (lane / @p w, seq). */
    void
    build(const kdp::WorkGroupTrace &trace, unsigned w)
    {
        // The loops work through locals: push_back may reallocate and
        // byte stores may alias anything, so members would be reloaded
        // on every event.
        const std::span<const kdp::MemAccess> events = trace.accesses;
        const std::uint32_t keys = layout(trace.laneAccessRows, w,
                                          events.size());
        const std::span<const Lane> table = lanes;
        // Pass 1: member counts and first-touch order.
        slot.assign(keys, 0);
        touched.clear();
        std::uint32_t *const slots = slot.data();
        for (std::uint32_t i = 0; i < events.size(); ++i) {
            const std::uint32_t k = keyOf(table, events[i]);
            if (slots[k]++ == 0)
                touched.push_back({k, i});
        }
        // Each op's first slot, op after op in first-touch order.
        std::uint32_t sum = 0;
        for (const Op &op : touched) {
            const std::uint32_t n = slots[op.key];
            slots[op.key] = sum;
            sum += n;
        }
        // Pass 2: scatter; each slot ends on its op's end.
        addrs.resize(events.size());
        flags.assign(keys, 0);
        std::uint64_t *const out = addrs.data();
        std::uint8_t *const atomic = flags.data();
        for (const kdp::MemAccess &e : events) {
            const std::uint32_t k = keyOf(table, e);
            out[slots[k]++] = e.addr;
            atomic[k] |= e.atomic;
        }
    }

    /**
     * Call @p fn(first, addrs, atomic) once per op of the last build(),
     * in first-touch order: @p first is the index of the op's first
     * access, @p addrs its members' addresses in no particular order
     * (@p fn may sort or dedupe them in place), @p atomic whether any
     * member is atomic.
     */
    template <typename Fn>
    void
    forEachOp(Fn &&fn)
    {
        std::uint32_t begin = 0;
        for (const Op &op : touched) {
            const std::uint32_t end = slot[op.key];
            fn(op.first,
               std::span<std::uint64_t>(addrs.data() + begin, end - begin),
               flags[op.key] != 0);
            begin = end;
        }
    }

    /**
     * Call @p divergent(laneGroup) once per branch op of @p trace whose
     * lanes disagree, in ascending (laneGroup, seq) order.  Replaces
     * any grouping built before.
     */
    template <typename Fn>
    void
    forEachDivergent(const kdp::WorkGroupTrace &trace, unsigned w,
                     Fn &&divergent)
    {
        flags.assign(layout(trace.laneBranchRows, w, trace.branches.size()),
                     0);
        const std::span<const Lane> table = lanes;
        std::uint8_t *const outcomes = flags.data();
        for (const kdp::BranchEvent &b : trace.branches)
            outcomes[keyOf(table, b)] |= b.taken ? 1 : 2;
        for (std::size_t lo = 0; lo < table.size(); lo += w) {
            const Lane &g = table[lo];
            for (std::uint32_t k = g.base; k < g.base + g.rows; ++k)
                if (outcomes[k] == 3)
                    divergent(static_cast<std::uint32_t>(lo / w));
        }
    }

  private:
    /** A lane's view of its lane group's rows in the key table. */
    struct Lane
    {
        std::uint32_t base; ///< first key of the lane group
        std::uint32_t rows; ///< max(seq) + 1 over the lane group
    };

    /** A touched op: its key and the index of its first event. */
    struct Op
    {
        std::uint32_t key;
        std::uint32_t first;
    };

    /**
     * Fill @c lanes from the recorded per-lane rows, in O(lanes);
     * returns the number of keys.
     */
    std::uint32_t
    layout(const std::vector<std::uint32_t> &lane_rows, unsigned w,
           std::size_t events)
    {
        if (events >= std::numeric_limits<std::uint32_t>::max())
            support::panic("trace of %zu events is too long to group",
                           events);
        const std::size_t n = lane_rows.size();
        lanes.resize(n);
        std::uint64_t sum = 0;
        for (std::size_t lo = 0; lo < n; lo += w) {
            const std::size_t hi = std::min<std::size_t>(n, lo + w);
            const std::uint32_t rows = *std::max_element(
                lane_rows.begin() + lo, lane_rows.begin() + hi);
            for (std::size_t l = lo; l < hi; ++l)
                lanes[l] = {static_cast<std::uint32_t>(sum), rows};
            sum += rows;
        }
        if (sum > events)
            support::panic("trace needs %llu op keys for %zu events: seq "
                           "is not a dense per-lane counter",
                           static_cast<unsigned long long>(sum), events);
        return static_cast<std::uint32_t>(sum);
    }

    /** Dense op key of @p e in the lane table @p table from layout(). */
    template <typename Event>
    static std::uint32_t
    keyOf(std::span<const Lane> table, const Event &e)
    {
        const std::uint32_t lane = e.lane;
        const std::uint32_t seq = e.seq;
        if (lane >= table.size())
            support::panic("trace lane %u is outside the %zu recorded "
                           "lanes", lane, table.size());
        const Lane &g = table[lane];
        if (seq >= g.rows)
            support::panic("trace seq %u lies past its lane group's %u "
                           "rows (lane %u)", seq, g.rows, lane);
        return g.base + seq;
    }

    std::vector<Lane> lanes;           ///< per lane: its group's rows
    std::vector<std::uint32_t> slot;   ///< per key: count, then cursor
    std::vector<std::uint8_t> flags;   ///< per key: atomic / outcomes
    std::vector<Op> touched;           ///< ops in first-touch order
    std::vector<std::uint64_t> addrs;  ///< member addresses by op
};

} // namespace sim
} // namespace dysel
