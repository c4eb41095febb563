#include "event_engine.hh"

#include <algorithm>
#include <utility>

#include "support/logging.hh"

namespace dysel {
namespace sim {

void
EventEngine::schedule(TimeNs when, Callback fn)
{
    if (when < currentTime)
        when = currentTime;
    std::uint32_t slot;
    if (freeCallbacks.empty()) {
        slot = static_cast<std::uint32_t>(callbacks.size());
        callbacks.push_back(std::move(fn));
    } else {
        slot = freeCallbacks.back();
        freeCallbacks.pop_back();
        callbacks[slot] = std::move(fn);
    }
    push(Event{when, nextSeq++, callbackKind, slot});
}

void
EventEngine::scheduleAfter(TimeNs delay, Callback fn)
{
    schedule(currentTime + delay, std::move(fn));
}

void
EventEngine::push(const Event &ev)
{
    if (rootFiring) {
        rootFiring = false;
        replaceRoot(ev);
        return;
    }
    heap.push_back(ev);
    std::push_heap(heap.begin(), heap.end(), later);
}

void
EventEngine::replaceRoot(const Event &ev)
{
    const std::size_t n = heap.size();
    std::size_t hole = 0;
    for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
        if (child + 1 < n && later(heap[child], heap[child + 1]))
            ++child;
        if (!later(ev, heap[child]))
            break;
        heap[hole] = heap[child];
        hole = child;
    }
    heap[hole] = ev;
}

void
EventEngine::run()
{
    if (running)
        support::panic("EventEngine::run is not reentrant");
    running = true;
    while (!heap.empty()) {
        // Copied: the first event posted while this one fires
        // overwrites heap[0].
        const Event ev = heap[0];
        rootFiring = true;
        currentTime = ev.when;
        ++fired;
        if (ev.kind == callbackKind) {
            // Free the slot before the call: the callback may
            // schedule more, and may reuse it.
            Callback fn = std::move(callbacks[ev.unit]);
            callbacks[ev.unit] = nullptr;
            freeCallbacks.push_back(ev.unit);
            fn();
        } else if (ev.kind != EventKind::Nop) {
            sink->fire(ev.kind, ev.unit);
        }
        if (rootFiring) {
            // Nothing was posted: remove the fired root.
            rootFiring = false;
            const Event last = heap.back();
            heap.pop_back();
            if (!heap.empty())
                replaceRoot(last);
        }
    }
    running = false;
}

} // namespace sim
} // namespace dysel
