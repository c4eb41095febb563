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
    heap.push_back(ev);
    std::push_heap(heap.begin(), heap.end(), later);
}

EventEngine::Event
EventEngine::pop()
{
    std::pop_heap(heap.begin(), heap.end(), later);
    const Event ev = heap.back();
    heap.pop_back();
    return ev;
}

void
EventEngine::run()
{
    if (running)
        support::panic("EventEngine::run is not reentrant");
    running = true;
    while (!heap.empty()) {
        const Event ev = pop();
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
    }
    running = false;
}

} // namespace sim
} // namespace dysel
