/**
 * @file
 * Unit tests for the discrete-event engine: time ordering, FIFO
 * tie-breaking, reentrancy from callbacks, typed events interleaved
 * with callbacks, and callback slot recycling.
 */
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_engine.hh"

#include "alloc_hook.hh"

using namespace dysel::sim;

namespace {

/** Records every typed event it receives, with the time it fired. */
struct RecordingSink : EventSink
{
    EventEngine *engine = nullptr;
    std::vector<std::tuple<EventKind, std::uint32_t, TimeNs>> seen;

    void
    fire(EventKind kind, std::uint32_t unit) override
    {
        seen.emplace_back(kind, unit, engine->now());
    }
};

} // namespace

TEST(EventEngine, StartsAtZeroAndIdle)
{
    EventEngine e;
    EXPECT_EQ(e.now(), 0u);
    EXPECT_TRUE(e.idle());
}

TEST(EventEngine, FiresInTimeOrder)
{
    EventEngine e;
    std::vector<int> order;
    e.schedule(30, [&] { order.push_back(3); });
    e.schedule(10, [&] { order.push_back(1); });
    e.schedule(20, [&] { order.push_back(2); });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(e.now(), 30u);
}

TEST(EventEngine, EqualTimesFireInInsertionOrder)
{
    EventEngine e;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        e.schedule(5, [&order, i] { order.push_back(i); });
    e.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventEngine, CallbacksMayScheduleMore)
{
    EventEngine e;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5)
            e.scheduleAfter(10, chain);
    };
    e.schedule(0, chain);
    e.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(e.now(), 40u);
}

TEST(EventEngine, PastTimesClampToNow)
{
    EventEngine e;
    TimeNs seen = 12345;
    e.schedule(100, [&] {
        e.schedule(50, [&] { seen = e.now(); }); // in the past
    });
    e.run();
    EXPECT_EQ(seen, 100u);
}

TEST(EventEngine, CountsFiredEvents)
{
    EventEngine e;
    for (int i = 0; i < 7; ++i)
        e.schedule(i, [] {});
    e.run();
    EXPECT_EQ(e.eventsFired(), 7u);
}

TEST(EventEngine, ScheduleAfterIsRelative)
{
    EventEngine e;
    TimeNs when = 0;
    e.schedule(40, [&] {
        e.scheduleAfter(2, [&] { when = e.now(); });
    });
    e.run();
    EXPECT_EQ(when, 42u);
}

TEST(EventEngine, TypedEventsAndCallbacksShareOneOrder)
{
    EventEngine e;
    RecordingSink sink;
    sink.engine = &e;
    e.attach(sink);
    // Posted and scheduled alternately at equal and distinct times:
    // everything fires in (time, insertion) order.
    std::vector<int> order;
    e.postAfter(10, EventKind::GroupDone, 0);
    e.schedule(10, [&] { order.push_back(1); });
    e.postAfter(5, EventKind::LaunchArrive, 7);
    e.schedule(10, [&] {
        order.push_back(2);
        e.postAfter(0, EventKind::GroupDone, 3); // same time, later seq
        e.schedule(10, [&] { order.push_back(4); });
    });
    e.postAfter(10, EventKind::GroupDone, 2);
    e.schedule(20, [&] { order.push_back(3); });
    e.run();

    EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3}));
    using Seen = std::tuple<EventKind, std::uint32_t, TimeNs>;
    EXPECT_EQ(sink.seen, (std::vector<Seen>{
                             {EventKind::LaunchArrive, 7, 5},
                             {EventKind::GroupDone, 0, 10},
                             {EventKind::GroupDone, 2, 10},
                             {EventKind::GroupDone, 3, 10},
                         }));
    EXPECT_EQ(e.eventsFired(), 8u);
    EXPECT_EQ(e.now(), 20u);
}

TEST(EventEngine, TypedEventsRunInTheirExactSequence)
{
    // Interleave a sink event between two callbacks at one time: the
    // sink must see the first callback's effect and not the second's.
    EventEngine e;
    struct Probe : EventSink
    {
        int *counter;
        int atFire = -1;
        void fire(EventKind, std::uint32_t) override { atFire = *counter; }
    };
    int counter = 0;
    Probe probe;
    probe.counter = &counter;
    e.attach(probe);
    e.schedule(3, [&] { counter = 1; });
    e.postAfter(3, EventKind::GroupDone, 0);
    e.schedule(3, [&] { counter = 2; });
    e.run();
    EXPECT_EQ(probe.atFire, 1);
    EXPECT_EQ(counter, 2);
}

TEST(EventEngine, NopEventsAdvanceTimeWithoutASink)
{
    EventEngine e;
    e.postAfter(250, EventKind::Nop);
    e.postAfter(40, EventKind::Nop);
    EXPECT_FALSE(e.idle());
    e.run();
    EXPECT_TRUE(e.idle());
    EXPECT_EQ(e.now(), 250u);
    EXPECT_EQ(e.eventsFired(), 2u);
}

TEST(EventEngine, CallbackIsReleasedWhenItFires)
{
    EventEngine e;
    auto token = std::make_shared<int>(0);
    std::weak_ptr<int> watch = token;
    TimeNs released_at = 0;
    e.schedule(5, [token] { ++*token; });
    token.reset();
    // The fired callback, and the state it captured, are gone by the
    // time the next event runs.
    e.schedule(6, [&] { released_at = watch.expired() ? e.now() : 0; });
    e.run();
    EXPECT_EQ(released_at, 6u);
}

TEST(EventEngine, CallbackSlotsAreReused)
{
    // A chain of callbacks, each scheduling the next, holds one slot
    // at a time; after one warm chain, a much longer one allocates
    // nothing (the lambda is small enough for std::function's inline
    // buffer, so only slot or heap growth could allocate).
    EventEngine e;
    int left = 0;
    std::function<void()> step;
    step = [&] {
        if (--left > 0)
            e.scheduleAfter(1, [&] { step(); });
    };
    left = 4;
    e.schedule(0, [&] { step(); });
    e.run();

    left = 4096;
    EXPECT_EQ(dysel::test::allocationsOf([&] {
                  e.schedule(e.now(), [&] { step(); });
                  e.run();
              }),
              0u);
    EXPECT_EQ(left, 0);
    EXPECT_EQ(e.eventsFired(), 4u + 4096u);
}

TEST(EventEngineDeath, RunIsNotReentrant)
{
    EventEngine e;
    e.schedule(1, [&] { e.run(); });
    EXPECT_DEATH(e.run(), "not reentrant");
}

TEST(EventEngineDeath, RunIsNotReentrantFromASink)
{
    EventEngine e;
    struct Reenter : EventSink
    {
        EventEngine *engine;
        void fire(EventKind, std::uint32_t) override { engine->run(); }
    };
    Reenter sink;
    sink.engine = &e;
    e.attach(sink);
    e.postAfter(1, EventKind::GroupDone, 0);
    EXPECT_DEATH(e.run(), "not reentrant");
}
