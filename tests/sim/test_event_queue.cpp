/**
 * @file
 * Tests for the discrete-event engine: ordering, tie-breaking, time
 * advancement and error handling.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/logging.hpp"

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

} // namespace
} // namespace fastcap
