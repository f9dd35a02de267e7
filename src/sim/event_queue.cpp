#include "sim/event_queue.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"
#include "util/math.hpp"

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
    pushHeap(Event{when, _seq++, &target, kind, arg});
}

void
EventQueue::scheduleFixed(Seconds delay, EventTarget &target,
                          EventKind kind, std::uint32_t arg)
{
    const Seconds when = _now + delay;
    if (!std::isfinite(when))
        panic("EventQueue::scheduleFixed: non-finite event time %g",
              when);
    if (delay < 0.0)
        panic("EventQueue::scheduleFixed: negative delay %g", delay);
    const Event e{when, _seq++, &target, kind, arg};
    if (pending() < kLaneThreshold) {
        pushHeap(e);
        return;
    }
    // The lane keyed by this delay, else an empty lane to re-key,
    // else a new lane; with all of them busy, the heap.
    const std::uint64_t bits = doubleBits(delay);
    Lane *lane = nullptr;
    for (Lane &l : _lanes) {
        if (l.delayBits == bits) {
            lane = &l;
            break;
        }
        if (!lane && l.count == 0)
            lane = &l;
    }
    if (!lane && _lanes.size() < kMaxLanes)
        lane = &_lanes.emplace_back();
    if (!lane) {
        pushHeap(e);
        return;
    }
    lane->delayBits = bits;
    lane->push(e);
    ++_laneEvents;
}

void
EventQueue::Lane::push(const Event &e)
{
    if (count == ring.size()) {
        // Full (or never used): double and unwrap so head is 0.
        std::vector<Event> grown(std::max<std::size_t>(16, 2 * count));
        for (std::size_t i = 0; i < count; ++i)
            grown[i] = ring[(head + i) & (ring.size() - 1)];
        ring.swap(grown);
        head = 0;
    }
    ring[(head + count) & (ring.size() - 1)] = e;
    ++count;
}

void
EventQueue::pushHeap(const Event &e)
{
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
    if (!std::isfinite(t_end))
        panic("EventQueue::runUntil: non-finite end time %g", t_end);
    std::uint64_t ran = 0;
    for (;;) {
        // The next event is the (when, seq) minimum of the heap root
        // and the lane heads.
        const Event *next = _heap.empty() ? nullptr : &_heap.front();
        Lane *from = nullptr;
        if (_laneEvents != 0) {
            for (Lane &lane : _lanes) {
                if (lane.count != 0 &&
                    (!next || earlier(lane.front(), *next))) {
                    next = &lane.front();
                    from = &lane;
                }
            }
        }
        if (!next || next->when > t_end)
            break;
        // Copy out before dispatching so the handler may schedule.
        const Event e = *next;
        if (from) {
            from->pop();
            --_laneEvents;
        } else {
            popFront();
        }
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
