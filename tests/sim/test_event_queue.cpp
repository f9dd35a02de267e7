/**
 * @file
 * Tests for the discrete-event engine: ordering, tie-breaking, time
 * advancement, error handling, and the fixed-delay lanes checked
 * against a plain (when, seq)-sorted reference queue.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace fastcap {
namespace {

/**
 * Test-local event target: logs the argument of every event it
 * receives and then runs an optional hook (which may schedule).
 */
struct Recorder final : EventTarget
{
    void
    onEvent(EventKind kind, std::uint32_t arg) override
    {
        args.push_back(arg);
        if (hook)
            hook(kind, arg);
    }

    std::vector<std::uint32_t> args;
    std::function<void(EventKind, std::uint32_t)> hook;
};

constexpr EventKind kAny = EventKind::ThinkDone;

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    Recorder r;
    q.schedule(3e-9, r, kAny, 3);
    q.schedule(1e-9, r, kAny, 1);
    q.schedule(2e-9, r, kAny, 2);
    q.runUntil(1e-6);
    EXPECT_EQ(r.args, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(EventQueue, FifoTieBreakAtEqualTimes)
{
    EventQueue q;
    Recorder r;
    for (std::uint32_t i = 0; i < 5; ++i)
        q.schedule(1e-9, r, kAny, i);
    q.runUntil(1e-6);
    EXPECT_EQ(r.args, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, MixedTargetsAndKindsFireInSchedulingOrder)
{
    // Ties break on scheduling order alone: neither the target nor
    // the kind takes part in the ordering.
    EventQueue q;
    std::vector<std::pair<int, EventKind>> log;
    Recorder a, b;
    a.hook = [&](EventKind k, std::uint32_t) { log.push_back({0, k}); };
    b.hook = [&](EventKind k, std::uint32_t) { log.push_back({1, k}); };
    const std::vector<std::pair<int, EventKind>> plan = {
        {1, EventKind::TransferDone}, {0, EventKind::ThinkDone},
        {1, EventKind::BankDone},     {0, EventKind::L2Submit},
        {0, EventKind::TransferDone}, {1, EventKind::ThinkDone},
    };
    for (const auto &[who, kind] : plan)
        q.schedule(5e-9, who == 0 ? a : b, kind);
    q.runUntil(1e-6);
    EXPECT_EQ(log, plan);
}

TEST(EventQueue, RunUntilAdvancesToBoundary)
{
    EventQueue q;
    Recorder r;
    q.schedule(5e-9, r, kAny);
    q.runUntil(100e-9);
    EXPECT_DOUBLE_EQ(q.now(), 100e-9);
}

TEST(EventQueue, EventsBeyondBoundaryStayPending)
{
    EventQueue q;
    Recorder r;
    q.schedule(50e-9, r, kAny);
    q.schedule(150e-9, r, kAny);
    q.runUntil(100e-9);
    EXPECT_EQ(r.args.size(), 1u);
    EXPECT_EQ(q.pending(), 1u);
    q.runUntil(200e-9);
    EXPECT_EQ(r.args.size(), 2u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CallbacksCanScheduleMoreEvents)
{
    EventQueue q;
    Recorder r;
    r.hook = [&](EventKind k, std::uint32_t) {
        if (r.args.size() < 10)
            q.scheduleAfter(1e-9, r, k);
    };
    q.schedule(0.0, r, kAny);
    q.runUntil(1e-6);
    EXPECT_EQ(r.args.size(), 10u);
    EXPECT_EQ(q.processed(), 10u);
}

TEST(EventQueue, SelfSchedulingRespectsBoundary)
{
    // An event chain must not run past the runUntil() horizon: the
    // window sampling of the epoch loop depends on this.
    EventQueue q;
    Recorder r;
    r.hook = [&](EventKind k, std::uint32_t) {
        q.scheduleAfter(10e-9, r, k);
    };
    q.schedule(0.0, r, kAny);
    q.runUntil(95e-9);
    EXPECT_EQ(r.args.size(), 10u); // t = 0, 10, ..., 90
    EXPECT_DOUBLE_EQ(q.now(), 95e-9);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue q;
    Recorder r;
    q.schedule(10e-9, r, kAny);
    q.runUntil(20e-9);
    EXPECT_THROW(q.schedule(5e-9, r, kAny), PanicError);
}

TEST(EventQueue, SchedulingAtNaNPanics)
{
    // NaN compares false against now(), so only an explicit check
    // keeps it out of the heap's strict weak order.
    EventQueue q;
    Recorder r;
    EXPECT_THROW(q.schedule(std::nan(""), r, kAny), PanicError);
    EXPECT_THROW(q.scheduleAfter(std::nan(""), r, kAny), PanicError);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SchedulingAtInfinityPanics)
{
    EventQueue q;
    Recorder r;
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(q.schedule(inf, r, kAny), PanicError);
    EXPECT_THROW(q.scheduleAfter(inf, r, kAny), PanicError);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ScheduleAtNowIsAllowed)
{
    EventQueue q;
    Recorder r;
    q.runUntil(10e-9);
    q.schedule(10e-9, r, kAny);
    q.runUntil(10e-9);
    EXPECT_EQ(r.args.size(), 1u);
}

TEST(EventQueue, FifoTieBreakSurvivesHeapChurn)
{
    // Regression: extraction must preserve scheduling order for
    // same-timestamp events even after the heap has been grown,
    // drained and re-grown (entries sifted through many positions).
    EventQueue q;
    Recorder filler, tagged;

    // Churn phase: a spread of timestamps, partially drained.
    for (int i = 0; i < 32; ++i)
        q.schedule((32 - i) * 1e-9, filler, kAny);
    q.runUntil(16e-9);

    // Interleave equal-time events with earlier and later ones.
    for (std::uint32_t i = 0; i < 8; ++i) {
        q.schedule(100e-9, tagged, kAny, i);
        q.schedule(90e-9 + i * 1e-9, filler, kAny);
        q.schedule(110e-9, tagged, kAny, 100 + i);
    }
    q.runUntil(1e-6);

    EXPECT_EQ(tagged.args,
              (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7, 100,
                                          101, 102, 103, 104, 105, 106,
                                          107}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CallbackStateSurvivesExtraction)
{
    // The dispatched event is copied out of the heap before its
    // handler runs: a handler that schedules into the same queue
    // while the heap reallocates must still see its own kind and
    // argument, and every event it schedules must fire intact.
    EventQueue q;
    Recorder r;
    r.hook = [&](EventKind k, std::uint32_t arg) {
        if (arg != 7 || k != EventKind::BankDone)
            return;
        for (std::uint32_t i = 0; i < 16; ++i)
            q.scheduleAfter((i + 1) * 1e-9, r, EventKind::L2Submit, i);
    };
    q.schedule(1e-9, r, EventKind::BankDone, 7);
    q.runUntil(1e-6);
    ASSERT_EQ(r.args.size(), 17u);
    EXPECT_EQ(r.args[0], 7u);
    for (std::uint32_t i = 0; i < 16; ++i)
        EXPECT_EQ(r.args[i + 1], i);
}

TEST(EventQueue, ProcessedCountsAcrossRuns)
{
    EventQueue q;
    Recorder r;
    for (int i = 0; i < 7; ++i)
        q.schedule(i * 1e-9, r, kAny);
    q.runUntil(3e-9);
    q.runUntil(10e-9);
    EXPECT_EQ(q.processed(), 7u);
}

TEST(EventQueue, FixedDelayPanicsOnNaNInfiniteOrNegative)
{
    EventQueue q;
    Recorder r;
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(q.scheduleFixed(std::nan(""), r, kAny), PanicError);
    EXPECT_THROW(q.scheduleFixed(inf, r, kAny), PanicError);
    EXPECT_THROW(q.scheduleFixed(-1e-9, r, kAny), PanicError);
    EXPECT_TRUE(q.empty());
    // The same checks hold once the queue is large enough for lanes.
    for (std::size_t i = 0; i < EventQueue::kLaneThreshold; ++i)
        q.schedule(1e-6, r, kAny);
    EXPECT_THROW(q.scheduleFixed(std::nan(""), r, kAny), PanicError);
    EXPECT_THROW(q.scheduleFixed(-inf, r, kAny), PanicError);
    EXPECT_THROW(q.scheduleFixed(-1e-9, r, kAny), PanicError);
    EXPECT_EQ(q.pending(), EventQueue::kLaneThreshold);
}

TEST(EventQueue, RunUntilNonFinitePanics)
{
    EventQueue q;
    Recorder r;
    q.schedule(1e-9, r, kAny);
    EXPECT_THROW(q.runUntil(std::nan("")), PanicError);
    EXPECT_THROW(q.runUntil(std::numeric_limits<double>::infinity()),
                 PanicError);
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_DOUBLE_EQ(q.now(), 0.0);
}

TEST(EventQueue, PendingAndEmptyCountLaneEvents)
{
    EventQueue q;
    Recorder r;
    // Fill the heap to the lane threshold with far-future events so
    // the fixed-delay events below go to lanes.
    for (std::size_t i = 0; i < EventQueue::kLaneThreshold; ++i)
        q.schedule(1e-6, r, kAny, 1000);
    for (std::uint32_t i = 0; i < 5; ++i)
        q.scheduleFixed(10e-9, r, kAny, i);
    for (std::uint32_t i = 5; i < 8; ++i)
        q.scheduleFixed(20e-9, r, kAny, i);
    EXPECT_EQ(q.pending(), EventQueue::kLaneThreshold + 8);
    q.runUntil(15e-9);
    EXPECT_EQ(q.pending(), EventQueue::kLaneThreshold + 3);
    q.runUntil(500e-9);
    EXPECT_EQ(q.pending(), EventQueue::kLaneThreshold);
    EXPECT_FALSE(q.empty());
    EXPECT_EQ(r.args,
              (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
    q.runUntil(2e-6);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);
}

/** One fired event as the oracle test compares it. */
using Fired = std::tuple<Seconds, int, EventKind, std::uint32_t>;

/**
 * The reference: a (when, seq)-sorted map with the scheduling surface
 * of EventQueue and no lanes. Fixed-delay events are ordinary events.
 */
class ReferenceQueue
{
  public:
    Seconds now() const { return _now; }
    std::size_t pending() const { return _events.size(); }

    void
    schedule(Seconds when, EventTarget &target, EventKind kind,
             std::uint32_t arg)
    {
        _events.emplace(std::make_pair(when, _seq++),
                        std::make_tuple(&target, kind, arg));
    }

    void
    scheduleAfter(Seconds delay, EventTarget &target, EventKind kind,
                  std::uint32_t arg)
    {
        schedule(_now + delay, target, kind, arg);
    }

    void
    scheduleFixed(Seconds delay, EventTarget &target, EventKind kind,
                  std::uint32_t arg)
    {
        schedule(_now + delay, target, kind, arg);
    }

    void
    runUntil(Seconds t_end)
    {
        while (!_events.empty() && _events.begin()->first.first <= t_end) {
            const auto [key, payload] = *_events.begin();
            _events.erase(_events.begin());
            _now = key.first;
            const auto [target, kind, arg] = payload;
            target->onEvent(kind, arg);
        }
        if (t_end > _now)
            _now = t_end;
    }

  private:
    using Payload = std::tuple<EventTarget *, EventKind, std::uint32_t>;
    std::map<std::pair<Seconds, std::uint64_t>, Payload> _events;
    Seconds _now = 0.0;
    std::uint64_t _seq = 0;
};

/**
 * Seeded random event soup: every fired event logs itself and, from
 * inside its handler, schedules up to two more events with a mix of
 * fixed delays (more distinct values than there are lanes, switched
 * mid-run), plain events at exactly the same offsets (heap/lane ties),
 * events at now() and other plain delays.
 */
template <class Queue>
std::vector<Fired>
runSoup(std::uint64_t seed)
{
    // Multiples of a power-of-two quantum (about 1 ns): every sum of
    // them is exact, so lane heads often tie the heap root and each
    // other. Phase A includes a zero delay; phase B uses half quanta.
    const Seconds quantum = std::ldexp(1.0, -30);
    std::vector<Seconds> phase_a, phase_b;
    for (double k : {0.0, 1.0, 2.0, 3.0, 5.0, 7.0, 11.0, 13.0})
        phase_a.push_back(k * quantum);
    for (double k : {2.5, 4.0, 6.0, 8.0, 9.0, 10.0, 12.0, 14.5})
        phase_b.push_back(k * quantum);
    static_assert(EventQueue::kMaxLanes < 8);

    struct Node final : EventTarget
    {
        void
        onEvent(EventKind kind, std::uint32_t arg) override
        {
            fire(id, kind, arg);
        }
        int id = 0;
        std::function<void(int, EventKind, std::uint32_t)> fire;
    };

    Queue q;
    Rng rng(seed);
    std::vector<Fired> log;
    std::vector<Node> nodes(8);
    std::uint32_t next_arg = 0;
    const std::vector<Seconds> *delays = &phase_a;

    auto pick = [&](const std::vector<Seconds> &v) {
        return v[static_cast<std::size_t>(rng.below(v.size()))];
    };
    auto spawn = [&] {
        Node &to = nodes[static_cast<std::size_t>(rng.below(nodes.size()))];
        const auto kind = static_cast<EventKind>(rng.below(4));
        const std::uint32_t arg = next_arg++;
        const std::uint64_t how = rng.below(10);
        if (how < 6)
            q.scheduleFixed(pick(*delays), to, kind, arg);
        else if (how < 8)
            q.schedule(q.now() + pick(*delays), to, kind, arg);
        else if (how < 9)
            q.schedule(q.now(), to, kind, arg);
        else
            q.scheduleAfter(static_cast<double>(rng.below(40)) * quantum, to,
                            kind, arg);
    };
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        nodes[i].id = static_cast<int>(i);
        nodes[i].fire = [&](int id, EventKind kind, std::uint32_t arg) {
            log.emplace_back(q.now(), id, kind, arg);
            // Hold the population near 100 events, well above the
            // lane threshold, without letting it die out.
            const std::uint64_t spawns = q.pending() < 100 ? 2 : 1;
            for (std::uint64_t k = 0; k < spawns; ++k)
                if (q.pending() < 100 || rng.chance(0.95))
                    spawn();
        };
    }

    for (int i = 0; i < 100; ++i)
        spawn();
    Seconds t = 0.0;
    for (int window = 0; window < 400; ++window) {
        if (window == 200)
            delays = &phase_b;
        t += 7.0 * quantum;
        q.runUntil(t);
        // Window marker (target -1): now() and pending() must match.
        log.emplace_back(q.now(), -1, EventKind::ThinkDone,
                         static_cast<std::uint32_t>(q.pending()));
    }
    return log;
}

TEST(EventQueue, FixedDelayLanesFireInReferenceOrder)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        const std::vector<Fired> ref = runSoup<ReferenceQueue>(seed);
        const std::vector<Fired> got = runSoup<EventQueue>(seed);
        ASSERT_GT(ref.size(), 20000u) << seed;
        ASSERT_EQ(got.size(), ref.size()) << seed;
        for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_EQ(got[i], ref[i]) << "seed " << seed << " event " << i;
    }
}

} // namespace
} // namespace fastcap
