/**
 * @file
 * Allocation-free grouping of trace events into machine ops.
 *
 * Both timing models treat the events of one lane group (a SIMD vector
 * of adjacent work-items on the CPU, a warp on the GPU) that share a
 * per-lane sequence number as one machine op.  Keys (lane / w, seq)
 * map to a dense table: each lane group gets max(seq) + 1 rows at a
 * prefix-sum base offset, so the key is base[laneGroup] + seq.  A
 * counting sort then lists each op's event indices in ascending order,
 * and the ops are kept in first-touch order (by their first event), the
 * order the timing models replay them in so the caches see the same
 * access sequence as an event-order walk.
 *
 * The per-lane sequence numbers are dense (kdp/trace.hh), so the table
 * never has more rows than the trace has events; a trace that breaks
 * this is a recording bug and panics.  Buffers are reused across calls
 * and stop allocating once they have grown to the largest trace seen.
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
    /** Group @p accesses into ops keyed (lane / @p w, seq). */
    void
    build(const std::vector<kdp::MemAccess> &accesses, unsigned w)
    {
        index(accesses, w);
        // Turn the member counts into end offsets, then scatter
        // backwards: each cursor ends on its op's first slot and the
        // members come out ascending.
        std::uint32_t sum = 0;
        for (std::uint32_t &s : start)
            s = sum += s;
        order.resize(accesses.size());
        for (auto i = static_cast<std::uint32_t>(accesses.size());
             i-- > 0;)
            order[--start[keyOf(accesses[i], w)]] = i;
    }

    /** Op keys in first-touch order (by their first member's index). */
    const std::vector<std::uint32_t> &firstTouch() const { return touched; }

    /** Indices of the events of op @p key, ascending. */
    std::span<const std::uint32_t>
    members(std::uint32_t key) const
    {
        return {order.data() + start[key], order.data() + start[key + 1]};
    }

    /**
     * Call @p divergent(laneGroup) once per branch op of @p branches
     * whose lanes disagree, in ascending (laneGroup, seq) order.
     * Replaces any grouping built before.
     */
    template <typename Fn>
    void
    forEachDivergent(const std::vector<kdp::BranchEvent> &branches,
                     unsigned w, Fn &&divergent)
    {
        index(branches, w);
        outcomes.assign(numKeys(), 0);
        for (const kdp::BranchEvent &b : branches)
            outcomes[keyOf(b, w)] |= b.taken ? 1 : 2;
        for (std::uint32_t lg = 0; lg + 1 < base.size(); ++lg)
            for (std::uint32_t k = base[lg]; k < base[lg + 1]; ++k)
                if (outcomes[k] == 3)
                    divergent(lg);
    }

  private:
    std::uint32_t numKeys() const { return base.back(); }

    /** Dense op key of @p e; valid once index() has filled @c base. */
    template <typename Event>
    std::uint32_t
    keyOf(const Event &e, unsigned w) const
    {
        return base[e.lane / w] + e.seq;
    }

    /**
     * Fill @c base (rows per lane group, then prefix sums), each key's
     * member count in @c start, and @c touched.
     */
    template <typename Event>
    void
    index(const std::vector<Event> &events, unsigned w)
    {
        if (events.size() >= std::numeric_limits<std::uint32_t>::max())
            support::panic("trace of %zu events is too long to group",
                           events.size());
        const auto n = static_cast<std::uint32_t>(events.size());
        // Rows per lane group: max(seq) + 1.  A group's events come in
        // runs, so its running max stays in a register until the group
        // changes.
        base.assign(1, 0);
        std::uint32_t lg_cur = 0;
        std::uint32_t rows = 0;
        for (const Event &e : events) {
            if (e.seq >= n)
                support::panic("trace seq %u exceeds the trace length %u "
                               "(lane %u)", e.seq, n, e.lane);
            const std::uint32_t lg = e.lane / w;
            if (lg != lg_cur) {
                base[lg_cur] = rows;
                if (lg >= base.size())
                    base.resize(lg + 1, 0);
                lg_cur = lg;
                rows = base[lg];
            }
            rows = std::max(rows, e.seq + 1);
        }
        base[lg_cur] = rows;
        std::uint64_t sum = 0;
        for (std::uint32_t &b : base) {
            const std::uint32_t r = b;
            b = static_cast<std::uint32_t>(sum);
            sum += r;
        }
        if (sum > n)
            support::panic("trace needs %llu op keys for %u events: seq "
                           "is not a dense per-lane counter",
                           static_cast<unsigned long long>(sum), n);
        base.push_back(static_cast<std::uint32_t>(sum));
        start.assign(sum + 1, 0);
        touched.clear();
        for (const Event &e : events) {
            const std::uint32_t k = keyOf(e, w);
            if (start[k]++ == 0)
                touched.push_back(k);
        }
    }

    std::vector<std::uint32_t> base;   ///< first key of each lane group
    std::vector<std::uint32_t> start;  ///< first slot in order per key
    std::vector<std::uint32_t> order;  ///< event indices grouped by key
    std::vector<std::uint32_t> touched; ///< keys in first-touch order
    std::vector<std::uint8_t> outcomes; ///< taken (1) / not-taken (2) bits
};

} // namespace sim
} // namespace dysel
