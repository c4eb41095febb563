/**
 * @file
 * Launch bookkeeping shared by the CPU and GPU devices.
 *
 * Launches are split into per-work-group tasks.  Streams impose CUDA
 * ordering (a launch may not start until every earlier launch in its
 * stream has fully completed); across streams, execution units pick
 * the highest-priority dispatchable launch, FIFO within a priority.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>

#include "launch.hh"
#include "time.hh"

namespace dysel {
namespace sim {

/** A launch with its in-flight progress. */
struct ActiveLaunch
{
    Launch launch;
    LaunchStats stats;
    std::uint64_t submitSeq = 0;  ///< global FIFO order
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
};

using LaunchPtr = std::shared_ptr<ActiveLaunch>;

/**
 * Priority/stream-aware dispatch queue.
 */
class DispatchQueue
{
  public:
    /** Register a submitted launch. */
    void
    add(const LaunchPtr &lp)
    {
        lp->submitSeq = nextSeq++;
        streams[lp->launch.stream].push_back(lp);
    }

    /**
     * Pick the launch the next free execution unit should draw a
     * work-group from, or nullptr when nothing is dispatchable.
     * Equal-priority streams are served round-robin, which is how
     * concurrent CUDA streams interleave blocks; without it the
     * first-registered variant would be profiled at systematically
     * lower SM residency than the others.
     */
    LaunchPtr
    pick()
    {
        LaunchPtr best;
        int best_stream = 0;
        for (auto &[stream, queue] : streams) {
            // Retire completed launches from the stream head so the
            // next launch in the stream becomes dispatchable.
            while (!queue.empty() && queue.front()->finished())
                queue.pop_front();
            if (queue.empty())
                continue;
            const LaunchPtr &head = queue.front();
            if (head->allIssued())
                continue;
            if (!best
                || head->launch.priority > best->launch.priority
                || (head->launch.priority == best->launch.priority
                    && servedTick[stream] < servedTick[best_stream])) {
                best = head;
                best_stream = stream;
            }
        }
        if (best)
            servedTick[best_stream] = ++tick;
        return best;
    }

    /**
     * True when no launch has unissued groups, i.e. pick() would
     * return nullptr.  A pure query: it neither retires launches nor
     * advances the round-robin.
     */
    bool
    drained() const
    {
        for (const auto &[stream, queue] : streams) {
            // The stream head is its first unfinished launch.
            auto head = std::find_if(
                queue.begin(), queue.end(),
                [](const LaunchPtr &lp) { return !lp->finished(); });
            if (head != queue.end() && !(*head)->allIssued())
                return false;
        }
        return true;
    }

  private:
    std::map<int, std::deque<LaunchPtr>> streams;
    std::map<int, std::uint64_t> servedTick;
    std::uint64_t nextSeq = 0;
    std::uint64_t tick = 0;
};

} // namespace sim
} // namespace dysel
