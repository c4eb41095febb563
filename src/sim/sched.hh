/**
 * @file
 * Launch bookkeeping shared by the CPU and GPU devices.
 *
 * Launches are split into per-work-group tasks.  Streams impose CUDA
 * ordering (a launch may not start until every earlier launch in its
 * stream has fully completed); across streams, execution units pick
 * the highest-priority dispatchable launch, FIFO within a priority.
 *
 * Launches live in a slot table and are named by slot index, so the
 * per-work-group path handles plain integers: no reference counting,
 * and a slot lookup is one index and one load.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "launch.hh"
#include "time.hh"

namespace dysel {
namespace sim {

/** A launch with its in-flight progress. */
struct ActiveLaunch
{
    Launch launch;
    LaunchStats stats;
    std::uint64_t nextGroup = 0;  ///< next group index to issue
    std::uint64_t done = 0;       ///< completed groups
    /** Work-group duration multiplier (injected latency spike). */
    double timeScale = 1.0;

    bool allIssued() const { return nextGroup >= launch.numGroups; }
    bool finished() const { return done >= launch.numGroups; }

    /** Absolute grid id of issue-index @p i. */
    std::uint64_t gridId(std::uint64_t i) const
    {
        return launch.firstGroup + i;
    }

    /** Issue the next work-group, starting at @p start; its grid id. */
    std::uint64_t
    issue(TimeNs start)
    {
        const std::uint64_t i = nextGroup++;
        stats.firstStamp =
            i == 0 ? start : std::min(stats.firstStamp, start);
        return gridId(i);
    }

    /**
     * Account a work-group that ended at @p end, busy for @p dur, then
     * fire the launch's completion hook once the last group is done.
     */
    void
    groupDone(TimeNs dur, TimeNs end)
    {
        done++;
        stats.groups++;
        stats.busyTime += dur;
        stats.lastStamp = std::max(stats.lastStamp, end);
        if (finished() && launch.onComplete)
            launch.onComplete(stats);
    }
};

/**
 * Priority/stream-aware dispatch queue over a slot table of launches.
 */
class DispatchQueue
{
  public:
    /** "No launch" slot index. */
    static constexpr std::uint32_t none = ~std::uint32_t{0};

    /**
     * Take a slot for @p launch, not yet dispatchable (add() makes it
     * so).  The slot holds until the launch finishes and pick()
     * retires it.
     */
    std::uint32_t
    acquire(Launch launch)
    {
        std::uint32_t slot;
        if (freeSlots.empty()) {
            slot = static_cast<std::uint32_t>(slots.size());
            slots.push_back(std::make_unique<ActiveLaunch>());
        } else {
            slot = freeSlots.back();
            freeSlots.pop_back();
        }
        slots[slot]->launch = std::move(launch);
        return slot;
    }

    /** The launch in @p slot; the reference outlives later acquires. */
    ActiveLaunch &operator[](std::uint32_t slot) { return *slots[slot]; }

    /** Make the launch in @p slot dispatchable, behind its stream. */
    void
    add(std::uint32_t slot)
    {
        const int id = slots[slot]->launch.stream;
        auto it = std::lower_bound(
            streams.begin(), streams.end(), id,
            [](const Stream &s, int key) { return s.id < key; });
        if (it == streams.end() || it->id != id)
            it = streams.insert(it, Stream{id, 0, {}, 0});
        it->fifo.push_back(slot);
    }

    /**
     * Pick the launch the next free execution unit should draw a
     * work-group from, or none when nothing is dispatchable.
     * Equal-priority streams are served round-robin, which is how
     * concurrent CUDA streams interleave blocks; without it the
     * first-registered variant would be profiled at systematically
     * lower SM residency than the others.  Streams never served tie
     * by ascending id.
     */
    std::uint32_t
    pick()
    {
        Stream *best = nullptr;
        const ActiveLaunch *bestLaunch = nullptr;
        for (Stream &s : streams) {
            // Retire completed launches from the stream head so the
            // next launch in the stream becomes dispatchable.
            while (s.head < s.fifo.size()
                   && slots[s.fifo[s.head]]->finished())
                retireHead(s);
            if (s.head == s.fifo.size())
                continue;
            const ActiveLaunch &head = *slots[s.fifo[s.head]];
            if (head.allIssued())
                continue;
            if (!best || head.launch.priority > bestLaunch->launch.priority
                || (head.launch.priority == bestLaunch->launch.priority
                    && s.served < best->served)) {
                best = &s;
                bestLaunch = &head;
            }
        }
        if (!best)
            return none;
        best->served = ++tick;
        return best->fifo[best->head];
    }

    /**
     * True when no launch has unissued groups, i.e. pick() would
     * return none.  A pure query: it neither retires launches nor
     * advances the round-robin.
     */
    bool
    drained() const
    {
        for (const Stream &s : streams) {
            // The stream head is its first unfinished launch.
            auto head = std::find_if(
                s.fifo.begin() + s.head, s.fifo.end(),
                [this](std::uint32_t l) { return !slots[l]->finished(); });
            if (head != s.fifo.end() && !slots[*head]->allIssued())
                return false;
        }
        return true;
    }

  private:
    /** One stream's launches in submission order, from fifo[head]. */
    struct Stream
    {
        int id;
        std::uint64_t served = 0; ///< tick of the last pick; 0 = never
        std::vector<std::uint32_t> fifo;
        std::size_t head = 0;
    };

    /** Free the finished head launch of @p s and its slot. */
    void
    retireHead(Stream &s)
    {
        const std::uint32_t slot = s.fifo[s.head++];
        *slots[slot] = ActiveLaunch(); // drop the launch's args/closures
        freeSlots.push_back(slot);
        // Compact once the retired prefix is most of the fifo, so a
        // stream that never empties does not grow without bound.
        if (s.head * 2 >= s.fifo.size()) {
            s.fifo.erase(s.fifo.begin(),
                         s.fifo.begin() + static_cast<long>(s.head));
            s.head = 0;
        }
    }

    /** Boxed, so a live reference survives the table growing. */
    std::vector<std::unique_ptr<ActiveLaunch>> slots;
    std::vector<std::uint32_t> freeSlots;
    std::vector<Stream> streams; ///< sorted by id
    std::uint64_t tick = 0;
};

} // namespace sim
} // namespace dysel
