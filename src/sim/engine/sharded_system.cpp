#include "sim/engine/sharded_system.hpp"

#include <algorithm>
#include <utility>

#include "sim/core.hpp"
#include "telemetry/registry.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace fastcap {

namespace {

/**
 * Deterministic per-lane RNG streams: derived from (seed, core index)
 * only, so a core's random trace is independent of the shard layout
 * and the thread count. Stream 2i drives the core, 2i+1 its lane
 * controller.
 */
Rng
laneRng(std::uint64_t seed, int core, int stream)
{
    const auto n = 2 * static_cast<std::uint64_t>(core) +
        static_cast<std::uint64_t>(stream);
    return Rng(splitmix64(seed, n));
}

} // namespace

ShardedSystem::ShardedSystem(SimConfig cfg,
                             std::vector<AppProfile> apps, int shards,
                             int threads)
    : _cfg(std::move(cfg)),
      _corePower(_cfg.corePower, _cfg.coreVoltage,
                 _cfg.coreLadder.max()),
      _memFreqIndex(_cfg.memLadder.maxIndex()), _threads(threads)
{
    _cfg.validate();
    const int n = _cfg.numCores;
    if (static_cast<int>(apps.size()) != n)
        fatal("ShardedSystem: %zu applications for %d cores",
              apps.size(), n);
    if (_cfg.interleave == InterleaveMode::Skewed)
        warn("ShardedSystem: skewed interleaving is not representable "
             "with per-core memory lanes; modeling the modulo "
             "core->controller mapping instead");

    const int k_ctrl = _cfg.numControllers;
    // Each lane carries a fair share of its *own* logical
    // controller's bus: controller c serves laneCount(c) lanes
    // (i % k_ctrl == c), so one lane's transfer takes laneCount(c)
    // times the logical per-line occupancy. Scaling by the
    // controller's own lane count — not the N/K average — bounds the
    // merged bus occupancy by the window even when n is not a
    // multiple of k_ctrl. Banks split the same way (floored at one;
    // they model latency, not the bandwidth bottleneck).
    _laneCfgs.reserve(static_cast<std::size_t>(k_ctrl));
    for (int c = 0; c < k_ctrl; ++c) {
        // A controller can be lane-less when numControllers exceeds
        // numCores (it then just idles, as on the monolithic engine);
        // floor at 1 so its config stays well-formed.
        const int lanes = std::max(
            1, n / k_ctrl + (c < n % k_ctrl ? 1 : 0));
        SimConfig lane_cfg = _cfg;
        lane_cfg.busBurstCycles =
            _cfg.busBurstCycles * static_cast<double>(lanes);
        lane_cfg.banksPerController =
            std::max(1, _cfg.banksPerController / lanes);
        _laneCfgs.push_back(std::move(lane_cfg));
    }
    // Every lane starts on the fair share of its controller's bus;
    // redivideBandwidth() retunes these scales at window barriers.
    _laneScale.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        const int c = i % k_ctrl;
        _laneScale[static_cast<std::size_t>(i)] = std::max(
            1.0, static_cast<double>(n / k_ctrl +
                                     (c < n % k_ctrl ? 1 : 0)));
    }

    const int k = std::clamp(shards, 1, n);
    _shardBegin.reserve(static_cast<std::size_t>(k) + 1);
    for (int s = 0; s <= k; ++s)
        _shardBegin.push_back(s * (n / k) + std::min(s, n % k));

    _lanes.resize(static_cast<std::size_t>(n));
    for (int core_id = 0; core_id < n; ++core_id) {
        Lane &ln = _lanes[static_cast<std::size_t>(core_id)];
        const SimConfig &lane_cfg =
            _laneCfgs[static_cast<std::size_t>(core_id % k_ctrl)];
        ln.app = std::move(apps[static_cast<std::size_t>(core_id)]);
        ln.controller = std::make_unique<MemoryController>(
            core_id, lane_cfg, ln.queue, laneRng(_cfg.seed, core_id, 1));
        ln.core = std::make_unique<Core>(
            core_id, lane_cfg, ln.queue, laneRng(_cfg.seed, core_id, 0));
        ln.core->runApp(&ln.app);
        MemoryController *ctrl = ln.controller.get();
        ln.core->submitCallback([ctrl](Request req) {
            ctrl->submit(std::move(req));
        });
        Core *core = ln.core.get();
        ln.controller->deliveryCallback(
            [core](const Request &req, Seconds at) {
                core->onDataReturn(req, at);
            });
        ln.core->start();
    }

    // Logical-controller power models and access rows, mirroring the
    // monolithic system's per-controller share split.
    const double share = 1.0 / static_cast<double>(k_ctrl);
    for (int c = 0; c < k_ctrl; ++c)
        _memPower.emplace_back(_cfg.memPower, share, _cfg.mcVoltage,
                               _cfg.memLadder.max());
    _accessProbs.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        std::vector<double> row(static_cast<std::size_t>(k_ctrl), 0.0);
        row[static_cast<std::size_t>(i % k_ctrl)] = 1.0;
        _accessProbs[static_cast<std::size_t>(i)] = std::move(row);
    }

    if (shardWorkers() > 1)
        _pool = std::make_unique<ThreadPool>(
            static_cast<std::size_t>(shardWorkers()));
}

ShardedSystem::~ShardedSystem() = default;

int
ShardedSystem::shardWorkers() const
{
    const int want = _threads == 0
        ? static_cast<int>(ThreadPool::hardwareWorkers())
        : _threads;
    return std::clamp(want, 1, numShards());
}

std::pair<int, int>
ShardedSystem::shardRange(int s) const
{
    const int first = _shardBegin.at(static_cast<std::size_t>(s));
    return {first, _shardBegin.at(static_cast<std::size_t>(s) + 1) -
                       first};
}

ShardedSystem::Lane &
ShardedSystem::lane(int core)
{
    return _lanes.at(static_cast<std::size_t>(core));
}

const ShardedSystem::Lane &
ShardedSystem::lane(int core) const
{
    return _lanes.at(static_cast<std::size_t>(core));
}

const AppProfile &
ShardedSystem::appOf(int core) const
{
    return lane(core).app;
}

void
ShardedSystem::swapApp(int core, AppProfile app)
{
    // The core holds a stable pointer into its lane's app slot;
    // assigning the slot is the whole rebind (the next scheduled
    // think reads the new phases), exactly as on the monolithic
    // engine. Safe because it happens between windows, when no shard
    // job is running.
    lane(core).app = std::move(app);
}

void
ShardedSystem::coreFreqIndex(int core, std::size_t idx)
{
    if (idx >= _cfg.coreLadder.size())
        panic("coreFreqIndex: index %zu out of range", idx);
    Core &c = *lane(core).core;
    c.frequency(_cfg.coreLadder.at(idx));
    c.freqIndex(idx);
}

std::size_t
ShardedSystem::coreFreqIndex(int core) const
{
    return lane(core).core->freqIndex();
}

void
ShardedSystem::memFreqIndex(std::size_t idx)
{
    if (idx >= _cfg.memLadder.size())
        panic("memFreqIndex: index %zu out of range", idx);
    _memFreqIndex = idx;
    const Hertz f = _cfg.memLadder.at(idx);
    for (Lane &ln : _lanes)
        ln.controller->busFrequency(f);
}

Hertz
ShardedSystem::memFrequency() const
{
    return _cfg.memLadder.at(_memFreqIndex);
}

void
ShardedSystem::maxFrequencies()
{
    for (int i = 0; i < _cfg.numCores; ++i)
        coreFreqIndex(i, _cfg.coreLadder.maxIndex());
    memFreqIndex(_cfg.memLadder.maxIndex());
}

void
ShardedSystem::runShardWindow(int s, Seconds t_end)
{
    const auto [first, count] = shardRange(s);
    for (int i = first; i < first + count; ++i) {
        Lane &ln = lane(i);
        ln.core->resetCounters();
        ln.controller->resetCounters();
        ln.queue.runUntil(t_end);
        ln.core->flushStall(t_end);
        // Fold bank/bus busy time into the counters while still
        // inside the shard job; the merge below only reads.
        ln.controller->finalizeWindow();
    }
}

WindowStats
ShardedSystem::runWindow(Seconds duration)
{
    if (duration <= 0.0)
        fatal("runWindow: non-positive duration");

    const Seconds t_end = _now + duration;

    // Fan the shards out; pool.wait() is the window barrier. Shard
    // jobs touch only their own lanes, so any interleaving yields the
    // same per-lane counters.
    if (_pool) {
        for (int s = 0; s < numShards(); ++s)
            _pool->submit([this, s, t_end] { runShardWindow(s, t_end); });
        _pool->wait();
    } else {
        for (int s = 0; s < numShards(); ++s)
            runShardWindow(s, t_end);
    }
    _now = t_end;

    // Deterministic merge, all on the calling thread: per-core stats
    // in core-index order, then logical-controller aggregation in
    // (controller, ascending core) order.
    WindowStats stats;
    stats.duration = duration;
    stats.backgroundPower = _cfg.backgroundPower;

    const int n = _cfg.numCores;
    double energy = 0.0;
    stats.cores.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        const Lane &ln = lane(i);
        CoreWindowStats cs;
        cs.counters = ln.core->counters();
        cs.frequency = ln.core->frequency();
        cs.freqIndex = ln.core->freqIndex();
        cs.activity = ln.core->currentActivity();
        const Joules e = _corePower.windowEnergy(
            cs.frequency, cs.activity, cs.counters.busyTime,
            cs.counters.stallTime, duration);
        cs.totalPower = e / duration;
        cs.dynamicPower = cs.totalPower - _corePower.staticPower();
        energy += e;
        stats.cores.push_back(cs);
    }

    const int k_ctrl = _cfg.numControllers;
    const Hertz bus_freq = _cfg.memLadder.at(_memFreqIndex);
    stats.memory.reserve(static_cast<std::size_t>(k_ctrl));
    for (int c = 0; c < k_ctrl; ++c) {
        ControllerCounters agg;
        for (int i = c; i < n; i += k_ctrl) {
            const ControllerCounters &lc =
                lane(i).controller->counters();
            agg.reads += lc.reads;
            agg.writebacks += lc.writebacks;
            agg.qSum += lc.qSum;
            agg.qSamples += lc.qSamples;
            agg.uSum += lc.uSum;
            agg.uSamples += lc.uSamples;
            agg.serviceSum += lc.serviceSum;
            agg.serviceCount += lc.serviceCount;
            agg.responseSum += lc.responseSum;
            agg.responseCount += lc.responseCount;
            agg.bankBusyTime += lc.bankBusyTime;
            // Lane bus occupancy is in lane-bus seconds (the scaled
            // share); convert to logical-bus seconds so downstream
            // utilisation math matches the monolithic engine's. The
            // scale in effect *during* the window applies — the
            // re-division below only shapes the next one.
            agg.busBusyTime += lc.busBusyTime /
                _laneScale[static_cast<std::size_t>(i)];
        }

        MemWindowStats ms;
        ms.counters = agg;
        ms.busFrequency = bus_freq;
        ms.transferTime = _cfg.busBurstCycles / bus_freq;
        ms.busUtilisation = agg.busBusyTime / duration;
        const std::uint64_t accesses = agg.reads + agg.writebacks;
        const Joules e = _memPower[static_cast<std::size_t>(c)]
                             .windowEnergy(bus_freq, accesses,
                                           duration);
        ms.totalPower = e / duration;
        ms.dynamicPower = ms.totalPower -
            _memPower[static_cast<std::size_t>(c)].staticPower();
        energy += e;
        stats.memory.push_back(ms);
    }

    energy += _cfg.backgroundPower * duration;
    stats.totalEnergy = energy;

    // Observe-only: window count plus per-shard cumulative event
    // counts, published on the merge thread after the barrier so
    // each gauge has one writer per window.
    if (telemetry::enabled()) {
        telemetry::Registry &reg = telemetry::Registry::global();
        reg.counter("/engine/windows").add();
        for (int s = 0; s < numShards(); ++s) {
            const auto [first, count] = shardRange(s);
            std::uint64_t events = 0;
            for (int i = first; i < first + count; ++i)
                events += lane(i).queue.processed();
            reg.gauge("/engine/shard/" + std::to_string(s) +
                      "/events")
                .set(static_cast<double>(events));
        }
    }

    // Demand-driven bandwidth re-division at the barrier: the merged
    // window's per-lane access counts decide next window's shares.
    redivideBandwidth();
    return stats;
}

void
ShardedSystem::redivideBandwidth()
{
    if (telemetry::enabled())
        telemetry::Registry::global()
            .counter("/engine/lane_merges")
            .add();
    const int n = _cfg.numCores;
    const int k_ctrl = _cfg.numControllers;
    std::vector<double> demand;
    std::vector<int> cores;
    for (int c = 0; c < k_ctrl; ++c) {
        demand.clear();
        cores.clear();
        double total = 0.0;
        for (int i = c; i < n; i += k_ctrl) {
            const ControllerCounters &lc =
                lane(i).controller->counters();
            const double d =
                static_cast<double>(lc.reads + lc.writebacks);
            demand.push_back(d);
            cores.push_back(i);
            total += d;
        }
        if (cores.size() < 2)
            continue; // a single lane always owns the whole bus
        const double lanes = static_cast<double>(cores.size());
        // Idle controller: fall back to the fair share (also the
        // weight every lane starts from, so an idle first window
        // changes nothing).
        // Floor at a tenth of the fair share: a cold lane keeps
        // enough bandwidth to ramp back up, and weights stay
        // positive. Renormalize so the shares sum to 1 — the merged
        // logical-bus occupancy stays bounded by the window.
        double wsum = 0.0;
        std::vector<double> w(cores.size());
        for (std::size_t j = 0; j < cores.size(); ++j) {
            w[j] = total > 0.0
                ? std::max(demand[j] / total, 0.1 / lanes)
                : 1.0 / lanes;
            wsum += w[j];
        }
        for (std::size_t j = 0; j < cores.size(); ++j) {
            const double share = w[j] / wsum;
            lane(cores[j]).controller->busBurstCycles(
                _cfg.busBurstCycles / share);
            _laneScale[static_cast<std::size_t>(cores[j])] =
                1.0 / share;
        }
    }
}

double
ShardedSystem::instructionsRetired(int core) const
{
    return lane(core).core->instructionsRetired();
}

void
ShardedSystem::creditInstructions(int core, double instr)
{
    lane(core).core->creditInstructions(instr);
}

Watts
ShardedSystem::nameplatePeakPower() const
{
    // Same arithmetic as the monolithic engine: the nameplate is a
    // property of the modeled machine, not of the DES execution.
    double peak = _cfg.backgroundPower;
    peak += static_cast<double>(_cfg.numCores) *
        _corePower.peakPower();
    const Seconds transfer =
        _cfg.busBurstCycles / _cfg.memLadder.max();
    for (const MemoryPowerModel &pm : _memPower)
        peak += pm.peakPower(1.0 / transfer);
    return peak;
}

const std::vector<double> &
ShardedSystem::accessProbabilities(int core) const
{
    return _accessProbs.at(static_cast<std::size_t>(core));
}

std::uint64_t
ShardedSystem::memoryInFlight() const
{
    std::uint64_t in_flight = 0;
    for (const Lane &ln : _lanes)
        in_flight += ln.controller->inFlight();
    return in_flight;
}

std::uint64_t
ShardedSystem::eventsProcessed() const
{
    std::uint64_t processed = 0;
    for (const Lane &ln : _lanes)
        processed += ln.queue.processed();
    return processed;
}

} // namespace fastcap
