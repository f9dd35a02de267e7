/**
 * @file
 * Host speed probe: a fixed piece of work that is the benchmark's own
 * code, never the program's, timed just before the steps it scales.
 *
 * On a shared host other tenants change the speed of a vCPU within
 * seconds, and for minutes at a time by up to 1.7x. A step's time
 * alone cannot tell that from a change to the program; the probe's
 * time moves with the host only.
 *
 * The work is event-queue churn on a small binary heap: data-dependent
 * compares and branches on an L1-resident array, the kind of work the
 * DES and the solver's sorts do. Five kinds of work (this heap, one 32x
 * larger, random walks over 2 MiB and 32 MiB, pow arithmetic) were
 * timed around every repetition of every workload for half an hour and
 * correlated with the repetition's time. The heap followed governor
 * (correlation 0.91) and scale1024 (0.77) best and paper64 about as well
 * as the rest; the others moved on their own and added noise. Probing
 * once per repetition still left paper64 runs of one seed 10% apart
 * (IQR / median), because the host changes speed within a repetition;
 * probing before every step brought that to 4%.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common.hpp"

#include "util/logging.hpp"

namespace perfbench {

namespace {

/** Pops and pushes in one unit of probe work. */
constexpr int kItems = 6000;
/** Units per thread and probe; each thread keeps its fastest. */
constexpr int kSamples = 3;
constexpr std::size_t kHeapSize = 2048;
/** A probe older than this is taken again before the next step. */
constexpr double kProbeEveryS = 0.02;

std::uint64_t
lcg(std::uint64_t &s)
{
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 11;
}

/** One probing thread's min-heap of event times. */
struct ProbeState
{
    std::vector<double> heap;

    explicit ProbeState(std::uint64_t seed)
    {
        std::uint64_t s = seed;
        for (std::size_t i = 0; i < kHeapSize; ++i)
            heap.push_back(static_cast<double>(lcg(s) % 1000000));
        std::make_heap(heap.begin(), heap.end(), std::greater<double>());
    }

    /** One unit: pop the earliest event, push it back later. */
    double unit()
    {
        std::uint64_t s = 12345;
        for (int k = 0; k < kItems; ++k) {
            std::pop_heap(heap.begin(), heap.end(), std::greater<double>());
            heap.back() += static_cast<double>(1 + lcg(s) % 1000);
            std::push_heap(heap.begin(), heap.end(), std::greater<double>());
        }
        return heap.front();
    }
};

std::vector<ProbeState> &
states(int threads)
{
    static std::vector<ProbeState> s;
    while (static_cast<int>(s.size()) < threads)
        s.emplace_back(0x9e3779b97f4a7c15ULL * (s.size() + 1));
    return s;
}

/** Fastest of kSamples units on `state`, seconds. */
double
fastestUnit(ProbeState &state, double &sink)
{
    double best = 1e30;
    for (int i = 0; i < kSamples; ++i) {
        const Clock::time_point t0 = Clock::now();
        sink += state.unit();
        best = std::min(best, since(t0));
    }
    return best;
}

} // namespace

double
probeHost(int threads)
{
    std::vector<ProbeState> &st = states(threads);
    std::vector<double> best(static_cast<std::size_t>(threads), 0.0);
    std::vector<double> sink(best.size(), 0.0);
    if (threads == 1) {
        best[0] = fastestUnit(st[0], sink[0]);
    } else {
        // All threads work at once, as the program's threads do, so a
        // slow vCPU anywhere shows in the slowest thread.
        std::atomic<int> ready{0};
        std::vector<std::thread> pool;
        for (int t = 0; t < threads; ++t)
            pool.emplace_back([&, t] {
                ready.fetch_add(1);
                while (ready.load() < threads)
                    std::this_thread::yield();
                best[t] = fastestUnit(st[t], sink[t]);
            });
        for (std::thread &th : pool)
            th.join();
    }
    if (!std::isfinite(sum(sink)))
        fastcap::panic("perfbench: host probe lost its result");
    return *std::max_element(best.begin(), best.end());
}

double
HostSpeed::now()
{
    if (_speed == 0.0 || since(_at) > kProbeEveryS) {
        _speed = std::pow(kReferenceProbeS / probeHost(_threads), _exponent);
        _at = Clock::now();
    }
    return _speed;
}

} // namespace perfbench
