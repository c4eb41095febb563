/**
 * @file
 * Unit tests for the launch bookkeeping shared by the devices:
 * ActiveLaunch progress tracking and the priority/stream-aware
 * DispatchQueue (round-robin among equal-priority streams, CUDA
 * in-stream ordering).
 */
#include <gtest/gtest.h>

#include "sim/sched.hh"

using namespace dysel::sim;

namespace {

LaunchPtr
makeLaunch(int stream, int priority, std::uint64_t groups)
{
    auto al = std::make_shared<ActiveLaunch>();
    al->launch.stream = stream;
    al->launch.priority = priority;
    al->launch.numGroups = groups;
    al->launch.firstGroup = 100; // arbitrary grid offset
    return al;
}

} // namespace

TEST(ActiveLaunch, ProgressTracking)
{
    auto al = makeLaunch(0, 0, 3);
    EXPECT_FALSE(al->allIssued());
    EXPECT_FALSE(al->finished());
    al->nextGroup = 3;
    EXPECT_TRUE(al->allIssued());
    EXPECT_FALSE(al->finished());
    al->done = 3;
    EXPECT_TRUE(al->finished());
    EXPECT_EQ(al->gridId(2), 102u);
}

TEST(DispatchQueue, EmptyQueuePicksNothing)
{
    DispatchQueue q;
    EXPECT_EQ(q.pick(), nullptr);
    EXPECT_TRUE(q.drained());
}

TEST(DispatchQueue, HigherPriorityWins)
{
    DispatchQueue q;
    auto low = makeLaunch(1, 0, 4);
    auto high = makeLaunch(2, 5, 4);
    q.add(low);
    q.add(high);
    EXPECT_EQ(q.pick(), high);
}

TEST(DispatchQueue, EqualPriorityRoundRobinsAcrossStreams)
{
    DispatchQueue q;
    auto a = makeLaunch(1, 0, 8);
    auto b = makeLaunch(2, 0, 8);
    q.add(a);
    q.add(b);
    // Consecutive picks alternate between the two streams (block
    // interleaving of concurrent CUDA streams).
    LaunchPtr first = q.pick();
    first->nextGroup++;
    LaunchPtr second = q.pick();
    second->nextGroup++;
    EXPECT_NE(first, second);
    LaunchPtr third = q.pick();
    third->nextGroup++;
    EXPECT_EQ(third, first);
}

TEST(DispatchQueue, SameStreamSerializes)
{
    DispatchQueue q;
    auto first = makeLaunch(3, 0, 2);
    auto second = makeLaunch(3, 0, 2);
    q.add(first);
    q.add(second);
    // Only the stream head is dispatchable.
    EXPECT_EQ(q.pick(), first);
    first->nextGroup = 2; // all issued but not finished
    EXPECT_EQ(q.pick(), nullptr);
    first->done = 2; // finished: the head retires
    EXPECT_EQ(q.pick(), second);
}

TEST(DispatchQueue, FullyIssuedLaunchIsNotPicked)
{
    DispatchQueue q;
    auto al = makeLaunch(1, 0, 1);
    q.add(al);
    EXPECT_EQ(q.pick(), al);
    al->nextGroup = 1;
    EXPECT_EQ(q.pick(), nullptr);
}

TEST(DispatchQueue, DrainedReflectsOutstandingWork)
{
    DispatchQueue q;
    auto al = makeLaunch(1, 0, 2);
    q.add(al);
    EXPECT_FALSE(q.drained());
    al->nextGroup = 2;
    EXPECT_TRUE(q.drained());
    // A finished head leaves the next launch in its stream pending.
    auto next = makeLaunch(1, 0, 1);
    q.add(next);
    EXPECT_TRUE(q.drained());
    al->done = 2;
    EXPECT_FALSE(q.drained());
}

TEST(DispatchQueue, DrainedDoesNotAdvanceRoundRobin)
{
    DispatchQueue q;
    auto a = makeLaunch(1, 0, 8);
    auto b = makeLaunch(2, 0, 8);
    q.add(a);
    q.add(b);
    EXPECT_EQ(q.pick(), a);
    EXPECT_FALSE(q.drained());
    // Querying must not count as serving a stream: B is still due.
    EXPECT_EQ(q.pick(), b);
}

TEST(DispatchQueue, PriorityBeatsRoundRobinFairness)
{
    DispatchQueue q;
    auto low_a = makeLaunch(1, 0, 8);
    auto low_b = makeLaunch(2, 0, 8);
    auto high = makeLaunch(3, 1, 2);
    q.add(low_a);
    q.add(low_b);
    q.add(high);
    // The priority launch is picked until exhausted.
    EXPECT_EQ(q.pick(), high);
    high->nextGroup++;
    EXPECT_EQ(q.pick(), high);
    high->nextGroup++;
    LaunchPtr next = q.pick();
    EXPECT_TRUE(next == low_a || next == low_b);
}
