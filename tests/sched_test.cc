/**
 * @file
 * Unit tests for the launch bookkeeping shared by the devices:
 * ActiveLaunch progress tracking and the priority/stream-aware
 * DispatchQueue (round-robin among equal-priority streams, CUDA
 * in-stream ordering, slot retirement and reuse).
 */
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/sched.hh"

using namespace dysel::sim;

namespace {

Launch
makeLaunch(int stream, int priority, std::uint64_t groups)
{
    Launch l;
    l.stream = stream;
    l.priority = priority;
    l.numGroups = groups;
    l.firstGroup = 100; // arbitrary grid offset
    return l;
}

/** Acquire a slot for a launch and make it dispatchable. */
std::uint32_t
submit(DispatchQueue &q, int stream, int priority, std::uint64_t groups)
{
    const std::uint32_t slot = q.acquire(makeLaunch(stream, priority, groups));
    q.add(slot);
    return slot;
}

constexpr std::uint32_t none = DispatchQueue::none;

} // namespace

TEST(ActiveLaunch, ProgressTracking)
{
    ActiveLaunch al;
    al.launch = makeLaunch(0, 0, 3);
    EXPECT_FALSE(al.allIssued());
    EXPECT_FALSE(al.finished());
    al.nextGroup = 3;
    EXPECT_TRUE(al.allIssued());
    EXPECT_FALSE(al.finished());
    al.done = 3;
    EXPECT_TRUE(al.finished());
    EXPECT_EQ(al.gridId(2), 102u);
}

TEST(ActiveLaunch, IssueAndGroupDoneKeepStampsAndFireHooks)
{
    ActiveLaunch al;
    al.launch = makeLaunch(0, 0, 2);
    int completions = 0;
    al.launch.onComplete = [&](const LaunchStats &st) {
        ++completions;
        EXPECT_EQ(st.groups, 2u);
        EXPECT_EQ(st.busyTime, 30u + 25u);
        EXPECT_EQ(st.span(), 45u - 10u);
    };
    EXPECT_EQ(al.issue(20), 100u); // group 0 sets the first stamp
    EXPECT_EQ(al.issue(10), 101u); // later, earlier start lowers it
    EXPECT_EQ(al.stats.firstStamp, 10u);
    al.groupDone(30, 45);
    EXPECT_EQ(completions, 0);
    al.groupDone(25, 35);
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(al.stats.lastStamp, 45u);
}

TEST(DispatchQueue, EmptyQueuePicksNothing)
{
    DispatchQueue q;
    EXPECT_EQ(q.pick(), none);
    EXPECT_TRUE(q.drained());
}

TEST(DispatchQueue, AcquiredSlotIsNotDispatchableUntilAdded)
{
    DispatchQueue q;
    const std::uint32_t slot = q.acquire(makeLaunch(1, 0, 4));
    EXPECT_EQ(q[slot].launch.numGroups, 4u);
    EXPECT_TRUE(q.drained());
    EXPECT_EQ(q.pick(), none);
    q.add(slot);
    EXPECT_EQ(q.pick(), slot);
}

TEST(DispatchQueue, HigherPriorityWins)
{
    DispatchQueue q;
    submit(q, 1, 0, 4);
    const std::uint32_t high = submit(q, 2, 5, 4);
    EXPECT_EQ(q.pick(), high);
}

TEST(DispatchQueue, EqualPriorityRoundRobinsAcrossStreams)
{
    DispatchQueue q;
    submit(q, 1, 0, 8);
    submit(q, 2, 0, 8);
    // Consecutive picks alternate between the two streams (block
    // interleaving of concurrent CUDA streams).
    const std::uint32_t first = q.pick();
    q[first].nextGroup++;
    const std::uint32_t second = q.pick();
    q[second].nextGroup++;
    EXPECT_NE(first, second);
    const std::uint32_t third = q.pick();
    q[third].nextGroup++;
    EXPECT_EQ(third, first);
}

TEST(DispatchQueue, UnservedStreamsTieByAscendingId)
{
    // Streams added out of order, negative ids included: streams
    // never served are picked lowest id first, then round-robin.
    DispatchQueue q;
    const std::uint32_t s5 = submit(q, 5, 0, 8);
    const std::uint32_t sm3 = submit(q, -3, 0, 8);
    const std::uint32_t s0 = submit(q, 0, 0, 8);
    const std::uint32_t sm7 = submit(q, -7, 0, 8);
    const std::uint32_t want[] = {sm7, sm3, s0, s5, sm7, sm3};
    for (std::uint32_t w : want) {
        const std::uint32_t got = q.pick();
        EXPECT_EQ(got, w);
        q[got].nextGroup++;
    }
}

TEST(DispatchQueue, SameStreamSerializes)
{
    DispatchQueue q;
    const std::uint32_t first = submit(q, 3, 0, 2);
    const std::uint32_t second = submit(q, 3, 0, 2);
    // Only the stream head is dispatchable.
    EXPECT_EQ(q.pick(), first);
    q[first].nextGroup = 2; // all issued but not finished
    EXPECT_EQ(q.pick(), none);
    q[first].done = 2; // finished: the head retires
    EXPECT_EQ(q.pick(), second);
}

TEST(DispatchQueue, FinishedHeadRetiresAndItsSlotIsReused)
{
    DispatchQueue q;
    const std::uint32_t a = submit(q, 1, 0, 1);
    EXPECT_EQ(q.pick(), a);
    q[a].nextGroup = 1;
    q[a].done = 1;
    q[a].stats.groups = 1;
    // pick() retires the finished head and frees its slot.
    EXPECT_EQ(q.pick(), none);
    const std::uint32_t b = q.acquire(makeLaunch(2, 0, 3));
    EXPECT_EQ(b, a);
    // The recycled slot starts from a clean launch record.
    EXPECT_EQ(q[b].nextGroup, 0u);
    EXPECT_EQ(q[b].done, 0u);
    EXPECT_EQ(q[b].stats.groups, 0u);
    EXPECT_EQ(q[b].launch.numGroups, 3u);
    q.add(b);
    EXPECT_EQ(q.pick(), b);
}

TEST(DispatchQueue, LongStreamKeepsFifoOrderAcrossRetirement)
{
    DispatchQueue q;
    std::vector<std::uint32_t> slots;
    for (int i = 0; i < 10; ++i)
        slots.push_back(submit(q, 4, 0, 1));
    for (int i = 0; i < 10; ++i) {
        const std::uint32_t got = q.pick();
        ASSERT_EQ(got, slots[i]) << i;
        q[got].nextGroup = 1;
        q[got].done = 1;
        if (i % 3 == 0) // a new launch joins behind the rest
            slots.push_back(submit(q, 4, 0, 1));
    }
    for (std::size_t i = 10; i < slots.size(); ++i) {
        const std::uint32_t got = q.pick();
        ASSERT_EQ(got, slots[i]) << i;
        q[got].nextGroup = 1;
        q[got].done = 1;
    }
    EXPECT_EQ(q.pick(), none);
    EXPECT_TRUE(q.drained());
}

TEST(DispatchQueue, FullyIssuedLaunchIsNotPicked)
{
    DispatchQueue q;
    const std::uint32_t al = submit(q, 1, 0, 1);
    EXPECT_EQ(q.pick(), al);
    q[al].nextGroup = 1;
    EXPECT_EQ(q.pick(), none);
}

TEST(DispatchQueue, DrainedReflectsOutstandingWork)
{
    DispatchQueue q;
    const std::uint32_t al = submit(q, 1, 0, 2);
    EXPECT_FALSE(q.drained());
    q[al].nextGroup = 2;
    EXPECT_TRUE(q.drained());
    // A finished head leaves the next launch in its stream pending.
    submit(q, 1, 0, 1);
    EXPECT_TRUE(q.drained());
    q[al].done = 2;
    EXPECT_FALSE(q.drained());
}

TEST(DispatchQueue, DrainedIsPure)
{
    DispatchQueue q;
    const std::uint32_t a = submit(q, 1, 0, 8);
    const std::uint32_t b = submit(q, 2, 0, 8);
    EXPECT_EQ(q.pick(), a);
    EXPECT_FALSE(q.drained());
    // Querying must not count as serving a stream: B is still due.
    EXPECT_EQ(q.pick(), b);

    // Nor does it retire a finished head: its slot stays taken until
    // pick() retires it.
    q[a].nextGroup = 8;
    q[a].done = 8;
    q[b].nextGroup = 8;
    EXPECT_TRUE(q.drained());
    EXPECT_NE(q.acquire(makeLaunch(3, 0, 1)), a);
    EXPECT_EQ(q.pick(), none); // retires a
    EXPECT_EQ(q.acquire(makeLaunch(3, 0, 1)), a);
}

TEST(DispatchQueue, PriorityBeatsRoundRobinFairness)
{
    DispatchQueue q;
    const std::uint32_t low_a = submit(q, 1, 0, 8);
    const std::uint32_t low_b = submit(q, 2, 0, 8);
    const std::uint32_t high = submit(q, 3, 1, 2);
    // The priority launch is picked until exhausted.
    EXPECT_EQ(q.pick(), high);
    q[high].nextGroup++;
    EXPECT_EQ(q.pick(), high);
    q[high].nextGroup++;
    const std::uint32_t next = q.pick();
    EXPECT_TRUE(next == low_a || next == low_b);
}
