/**
 * @file
 * A minimal deterministic discrete-event engine.
 *
 * Events fire in (time, insertion order).  Two kinds share that one
 * order: the DySel orchestrator's rare host actions are callbacks
 * (schedule()), while devices post small typed events (postAfter()) that
 * name a core, SM slot or launch slot and are handed to the device's
 * EventSink.  Typed events are plain values in a flat binary heap, so
 * the per-work-group path neither allocates nor type-erases; on small
 * work-groups that dispatch is a large share of host time.
 *
 * run() fires the heap root in place: the first event posted while it
 * fires takes over the root's slot with one sift-down, so a work-group
 * that ends by posting its successor costs one heap repair instead of
 * a pop and a push.  (when, seq) is a total order, so the firing order
 * is exactly that of popping first.
 *
 * Single threaded on purpose: determinism matters more than wall-clock
 * speed for a timing model.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "time.hh"

namespace dysel {
namespace sim {

/** What a typed event asks its sink to do. */
enum class EventKind : std::uint32_t {
    Nop,          ///< nothing; a dropped launch's stall only moves time
    LaunchArrive, ///< a submitted launch reaches the device queue
    GroupDone,    ///< a work-group finishes on a core / SM slot
};

/** Receiver of a device's typed events. */
class EventSink
{
  public:
    /** Handle @p kind for @p unit (a launch, core or SM slot index). */
    virtual void fire(EventKind kind, std::uint32_t unit) = 0;

  protected:
    ~EventSink() = default;
};

/** Deterministic discrete-event loop. */
class EventEngine
{
  public:
    using Callback = std::function<void()>;

    EventEngine() = default;
    EventEngine(const EventEngine &) = delete;
    EventEngine &operator=(const EventEngine &) = delete;

    /** Current virtual time. */
    TimeNs now() const { return currentTime; }

    /**
     * Schedule @p fn at absolute time @p when (>= now; earlier times
     * are clamped to now).
     */
    void schedule(TimeNs when, Callback fn);

    /** Schedule @p fn @p delay nanoseconds from now. */
    void scheduleAfter(TimeNs delay, Callback fn);

    /** Route typed events to @p s (must outlive the engine's use). */
    void attach(EventSink &s) { sink = &s; }

    /**
     * Post a typed event for @p unit @p delay nanoseconds from now.
     * Non-Nop kinds need an attached sink.
     */
    void
    postAfter(TimeNs delay, EventKind kind, std::uint32_t unit = 0)
    {
        push(Event{currentTime + delay, nextSeq++, kind, unit});
    }

    /** Run until no events remain. */
    void run();

    /** True when no events are pending, not counting the firing one. */
    bool idle() const { return heap.size() == (rootFiring ? 1u : 0u); }

    /** Number of events dispatched since construction. */
    std::uint64_t eventsFired() const { return fired; }

  private:
    /**
     * Engine-internal kind of a schedule()d callback: outside the
     * enumerators, so a device cannot post it.
     */
    static constexpr EventKind callbackKind =
        static_cast<EventKind>(~std::uint32_t{0});

    struct Event
    {
        TimeNs when;
        std::uint64_t seq;
        EventKind kind;
        std::uint32_t unit; ///< callback slot, or the sink's unit
    };

    /** Heap order: the root is the earliest (when, seq). */
    static bool
    later(const Event &a, const Event &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    void push(const Event &ev);

    /** Put @p ev at the root's slot and sift it down. */
    void replaceRoot(const Event &ev);

    std::vector<Event> heap;
    /**
     * heap[0] is the event run() is firing; the next push() takes its
     * slot instead of growing the heap.
     */
    bool rootFiring = false;
    /** Pending callbacks by slot; fired slots are recycled. */
    std::vector<Callback> callbacks;
    std::vector<std::uint32_t> freeCallbacks;
    EventSink *sink = nullptr;
    TimeNs currentTime = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t fired = 0;
    bool running = false;
};

} // namespace sim
} // namespace dysel
