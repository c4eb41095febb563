/**
 * @file
 * Unit tests for the discrete-event engine: time ordering, FIFO
 * tie-breaking, reentrancy from callbacks, typed events interleaved
 * with callbacks, callback slot recycling, and a seeded property test
 * against a pop-first reference engine.
 */
#include <algorithm>
#include <memory>
#include <queue>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_engine.hh"
#include "support/rng.hh"

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

// ---- Property: the in-place root fire keeps the pop-first order ------

namespace {

/** What a firing event saw of its engine, at entry and after a post. */
struct Observed
{
    std::uint32_t id;
    TimeNs at;
    bool idleAtEntry;
    std::uint64_t firedAtEntry;
    bool idleAfterPost; ///< false when the event posted nothing
    std::uint64_t firedAfterPost;

    bool operator==(const Observed &) const = default;
};

/** How a scripted event is posted. */
enum class Post {
    Typed,         ///< postAfter(delay, GroupDone, id)
    Nop,           ///< postAfter(delay, Nop): fires unseen
    Schedule,      ///< schedule(now + delay) of a callback
    SchedulePast,  ///< schedule(now - 1): clamped to now
    ScheduleAfter, ///< scheduleAfter(delay) of a callback
};

/**
 * The reference: pop the earliest (when, seq), then fire it, over a
 * std::priority_queue.
 */
class PopFirstEngine
{
  public:
    void
    post(Post how, TimeNs delay, std::uint32_t id)
    {
        TimeNs when = current + delay;
        if (how == Post::SchedulePast)
            when = current; // clamped from current - 1
        queue.push(Ev{when, seq++, id, how == Post::Nop});
    }

    TimeNs now() const { return current; }
    bool idle() const { return queue.empty(); }
    std::uint64_t eventsFired() const { return fired; }

    template <typename Fire>
    void
    run(Fire &&fire)
    {
        while (!queue.empty()) {
            const Ev ev = queue.top();
            queue.pop();
            current = ev.when;
            ++fired;
            if (!ev.nop)
                fire(ev.id);
        }
    }

  private:
    struct Ev
    {
        TimeNs when;
        std::uint64_t seq;
        std::uint32_t id;
        bool nop;
    };
    struct Later
    {
        bool
        operator()(const Ev &a, const Ev &b) const
        {
            return std::tie(a.when, a.seq) > std::tie(b.when, b.seq);
        }
    };

    std::priority_queue<Ev, std::vector<Ev>, Later> queue;
    TimeNs current = 0;
    std::uint64_t seq = 0;
    std::uint64_t fired = 0;
};

/** The engine under test behind PopFirstEngine's interface. */
class EngineUnderTest : EventSink
{
  public:
    EngineUnderTest() { engine.attach(*this); }

    void
    post(Post how, TimeNs delay, std::uint32_t id)
    {
        auto call = [this, id] { (*onFire)(id); };
        switch (how) {
          case Post::Typed:
            engine.postAfter(delay, EventKind::GroupDone, id);
            break;
          case Post::Nop:
            engine.postAfter(delay, EventKind::Nop);
            break;
          case Post::Schedule:
            engine.schedule(engine.now() + delay, call);
            break;
          case Post::SchedulePast:
            engine.schedule(engine.now() == 0 ? 0 : engine.now() - 1,
                            call);
            break;
          case Post::ScheduleAfter:
            engine.scheduleAfter(delay, call);
            break;
        }
    }

    TimeNs now() const { return engine.now(); }
    bool idle() const { return engine.idle(); }
    std::uint64_t eventsFired() const { return engine.eventsFired(); }

    template <typename Fire>
    void
    run(Fire &&fire)
    {
        std::function<void(std::uint32_t)> f = fire;
        onFire = &f;
        engine.run();
        onFire = nullptr;
    }

  private:
    void
    fire(EventKind, std::uint32_t unit) override
    {
        (*onFire)(unit);
    }

    EventEngine engine;
    std::function<void(std::uint32_t)> *onFire = nullptr;
};

/**
 * Run the script of @p seed on @p e: a few initial events, and every
 * firing event posts 0, 1 or several more, a third of them with zero
 * delay and the rest within 3 ns, so equal-time ties are common.  An
 * event's posts depend only on the seed and its id.
 */
template <typename Engine>
std::vector<Observed>
runScript(std::uint64_t seed, Engine &e)
{
    constexpr std::uint32_t budget = 3000;
    std::uint32_t nextId = 0;
    std::vector<Observed> seen;
    auto spawn = [&](dysel::support::Rng &rng) {
        const auto how = static_cast<Post>(rng.nextBelow(5));
        const TimeNs delay = rng.nextBool(1.0 / 3) ? 0 : rng.nextBelow(4);
        e.post(how, delay, nextId++);
    };
    dysel::support::Rng init(seed);
    for (int i = 0; i < 16; ++i)
        spawn(init);
    e.run([&](std::uint32_t id) {
        Observed o{id, e.now(), e.idle(), e.eventsFired(), false, 0};
        dysel::support::Rng rng(seed * 0x9e3779b97f4a7c15ull + id);
        const std::uint64_t roll = rng.nextBelow(10);
        const std::uint64_t posts =
            nextId >= budget ? 0 : roll < 2 ? 0 : roll < 6 ? 1 : 2 + roll % 3;
        for (std::uint64_t p = 0; p < posts; ++p) {
            spawn(rng);
            if (p == 0) {
                o.idleAfterPost = e.idle();
                o.firedAfterPost = e.eventsFired();
            }
        }
        seen.push_back(o);
    });
    return seen;
}

} // namespace

TEST(EventEngineProperty, FiringOrderMatchesPopFirstReference)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        PopFirstEngine ref;
        EngineUnderTest dut;
        const auto want = runScript(seed, ref);
        const auto got = runScript(seed, dut);
        ASSERT_GT(want.size(), 100u) << "seed " << seed;
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        for (std::size_t i = 0; i < want.size(); ++i)
            ASSERT_EQ(got[i], want[i]) << "seed " << seed << " event " << i;
        EXPECT_EQ(dut.eventsFired(), ref.eventsFired()) << "seed " << seed;
        EXPECT_EQ(dut.now(), ref.now()) << "seed " << seed;
        EXPECT_TRUE(dut.idle());
    }
}

TEST(EventEngineProperty, IdleExcludesTheFiringEvent)
{
    // The last pending event is firing: idle() is true until it posts.
    EventEngine e;
    std::vector<bool> idle;
    e.schedule(4, [&] {
        idle.push_back(e.idle());
        e.postAfter(0, EventKind::Nop);
        idle.push_back(e.idle());
    });
    e.run();
    EXPECT_EQ(idle, (std::vector<bool>{true, false}));
    EXPECT_EQ(e.eventsFired(), 2u);
    EXPECT_TRUE(e.idle());
}
