#include "sim/event_queue.hpp"

#include <cmath>

#include "util/logging.hpp"

namespace fastcap {

void
EventQueue::schedule(Seconds when, EventTarget &target, EventKind kind,
                     std::uint32_t arg)
{
    // A NaN time would pass the past-check and break the heap order.
    if (!std::isfinite(when))
        panic("EventQueue::schedule: non-finite event time %g", when);
    if (when < _now)
        panic("EventQueue::schedule: event in the past (%g < %g)",
              when, _now);
    const Event e{when, _seq++, &target, kind, arg};
    _heap.push_back(e);
    Event *h = _heap.data();
    std::size_t i = _heap.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!earlier(e, h[parent]))
            break;
        h[i] = h[parent];
        i = parent;
    }
    h[i] = e;
}

void
EventQueue::popFront()
{
    const Event last = _heap.back();
    _heap.pop_back();
    const std::size_t n = _heap.size();
    if (n == 0)
        return;
    Event *h = _heap.data();
    std::size_t i = 0;
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && earlier(h[child + 1], h[child]))
            ++child;
        if (!earlier(h[child], last))
            break;
        h[i] = h[child];
        i = child;
    }
    h[i] = last;
}

std::uint64_t
EventQueue::runUntil(Seconds t_end)
{
    std::uint64_t ran = 0;
    while (!_heap.empty() && _heap.front().when <= t_end) {
        // Copy out before dispatching so the handler may schedule.
        const Event e = _heap.front();
        popFront();
        _now = e.when;
        e.target->onEvent(e.kind, e.arg);
        ++ran;
        ++_processed;
    }
    if (t_end > _now)
        _now = t_end;
    return ran;
}

} // namespace fastcap
