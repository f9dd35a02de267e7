/**
 * @file
 * rack: 8 x 64-core machines under one rack budget (0.6 of installed
 * peak), a seeded flash-crowd job trace, and one machine that fails
 * and is restored, over 4 machine threads for a fixed epoch count.
 *
 * A repetition clears the peak-power memo, builds the Cluster
 * (setup) and steps it. The cluster's job totals are only reported
 * by Cluster::run(), so the telemetry-on check repetition drives the
 * rack through run() and must reproduce the stepped records exactly.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/arbiter.hpp"
#include "common.hpp"
#include "harness/peak_power.hpp"
#include "sim/engine/backend.hpp"
#include "telemetry/registry.hpp"
#include "trace/trace_generator.hpp"
#include "util/rng.hpp"
#include "workload/spec_table.hpp"

namespace perfbench {

using namespace fastcap;

namespace {

constexpr int kMachines = 8;
constexpr int kCores = 64;
constexpr int kThreads = 4;
constexpr double kFloor = 0.05;

int
epochsFor(const Options &opts)
{
    return opts.smoke ? 4 : 24;
}

ClusterConfig
rackConfig(const Options &opts)
{
    const int epochs = epochsFor(opts);
    ClusterConfig c;
    c.machines = kMachines;
    c.machine = SimConfig::defaultConfig(kCores);
    c.rackBudgetFraction = 0.6;
    c.maxEpochs = epochs;
    c.machineThreads = kThreads;
    c.shardThreads = 1;
    c.floorFraction = kFloor;
    c.seed = splitmix64(c.seed, opts.seed);
    // Steady load near the rack cap with a flash crowd a fifth of the
    // way in; the trace spans the whole run.
    const double horizon = epochs * c.machine.epochLength;
    char spec[256];
    std::snprintf(spec, sizeof spec,
                  "gen:flash,rate=12000,mean-duration=0.03,"
                  "flash-start=%.17g,flash-duration=%.17g,"
                  "flash-factor=3,horizon=%.17g,seed=%llu",
                  0.2 * horizon, 0.25 * horizon, horizon,
                  static_cast<unsigned long long>(opts.seed));
    c.trace = spec;
    c.failures.push_back(MachineFailure{3, epochs / 3, 2 * epochs / 3});
    return c;
}

struct RackRep : RepTimes
{
    Watts installedPeak = 0.0;
    std::vector<ClusterEpochRecord> records;
    std::uint64_t digest = 0;
    std::size_t badEpochs = 0;
    std::size_t leakEpochs = 0;
    ClusterResult totals; //!< job totals (Cluster::run() only)
};

/** Grants sum to the usable budget, up to rounding. */
bool
conserves(const ClusterEpochRecord &rec)
{
    double granted = 0.0;
    for (double w : rec.machineBudget)
        granted += w;
    return std::abs(granted - rec.usableBudget) <=
        1e-9 * std::max(rec.usableBudget, 1.0);
}

/**
 * Build the rack `setups` times, each paying the peak-power
 * measurement (0: once, reusing the memo), then run the last build.
 * `host`, when given, is probed before each setup and step.
 */
RackRep
runRackRep(const Options &opts, bool via_run, int setups,
           HostSpeed *host = nullptr)
{
    RackRep r;
    std::unique_ptr<Cluster> owner;
    Clock::time_point t0;
    for (int k = 0; k < std::max(setups, 1); ++k) {
        ClusterConfig cfg = rackConfig(opts);
        // The memo would hide the measurement from every setup after
        // the first one.
        if (setups > 0)
            clearPeakPowerCache();
        owner.reset();
        if (host)
            r.setupSpeed.push_back(host->now());
        t0 = Clock::now();
        owner = std::make_unique<Cluster>(std::move(cfg));
        r.setupS.push_back(since(t0));
    }
    Cluster &rack = *owner;
    r.installedPeak = rack.installedPeak();

    if (via_run) {
        r.totals = rack.run();
        r.records = r.totals.epochs;
    } else {
        for (int e = 0; e < epochsFor(opts); ++e) {
            if (host)
                r.stepSpeed.push_back(host->now());
            const Clock::time_point ts = Clock::now();
            ClusterEpochRecord rec = rack.step();
            r.stepMs.push_back(since(ts) * 1e3);
            r.records.push_back(std::move(rec));
        }
    }
    r.wallS = since(t0);

    Digest d;
    for (const ClusterEpochRecord &rec : r.records) {
        d.add(rec);
        if (!finiteRecord(rec))
            ++r.badEpochs;
        if (!conserves(rec))
            ++r.leakEpochs;
    }
    r.digest = d.value();
    return r;
}

void
checkRep(Report &report, const RackRep &r, std::uint64_t ref,
         const char *what)
{
    const std::size_t n = r.records.size();
    report.check(r.badEpochs == 0, r.badEpochs, "non-finite rack record");
    report.check(r.leakEpochs == 0, r.leakEpochs,
                 "machine grants do not sum to the usable rack budget");
    report.check(r.digest == ref, n, what);
}

/**
 * Capping error, energy-weighted: each live machine's power against
 * the grant its FastCap governor was given (`per_machine`), or the
 * rack's power against the usable budget.
 */
double
capErrorPct(const std::vector<ClusterEpochRecord> &recs, bool per_machine)
{
    double err_w = 0.0;
    double energy = 0.0;
    auto add = [&](Watts power, Watts budget) {
        err_w += power * std::abs(power - budget) / budget;
        energy += power;
    };
    for (const ClusterEpochRecord &e : recs) {
        if (!per_machine) {
            add(e.totalPower, e.usableBudget);
            continue;
        }
        for (std::size_t m = 0; m < e.machinePower.size(); ++m)
            if (e.machineBudget[m] > 0.0)
                add(e.machinePower[m], e.machineBudget[m]);
    }
    return energy > 0.0 ? 100.0 * err_w / energy : 0.0;
}

/**
 * Host time of one arbitrateRackBudget call, replayed on each
 * recorded epoch: live machines are those that drew power, demands
 * are the previous epoch's machine powers.
 */
std::vector<double>
replayArbiter(const RackRep &r, Report &report)
{
    const Watts peak = r.installedPeak / kMachines;
    std::vector<double> us;
    std::vector<Watts> demands(kMachines, peak);
    for (const ClusterEpochRecord &rec : r.records) {
        std::vector<Watts> peaks(kMachines, 0.0);
        for (int i = 0; i < kMachines; ++i)
            if (rec.machinePower[static_cast<std::size_t>(i)] > 0.0)
                peaks[static_cast<std::size_t>(i)] = peak;
        constexpr int kCalls = 200;
        double granted = 0.0;
        const Clock::time_point ts = Clock::now();
        for (int k = 0; k < kCalls; ++k) {
            const std::vector<Watts> g =
                arbitrateRackBudget(rec.rackBudget, peaks, demands, kFloor);
            granted += g.front();
        }
        us.push_back(since(ts) * 1e6 / kCalls);
        report.check(std::isfinite(granted), 1, "non-finite arbiter grant");
        demands = rec.machinePower;
    }
    return us;
}

} // namespace

void
runRack(const Options &opts, Report &report)
{
    const Clock::time_point start = Clock::now();
    const int min_reps = opts.smoke ? 1 : 3;
    const int setups = opts.smoke ? 1 : 4;

    std::vector<RackRep> reps;   // stepped, telemetry off
    std::vector<RackRep> traced; // stepped, telemetry on
    std::vector<RackRep> runs;   // Cluster::run(), for job totals
    if (!opts.trace) {
        HostSpeed host(kThreads, 1.0);
        while (anotherRep(start, static_cast<int>(reps.size()),
                          opts.seconds, min_reps)) {
            if (telemetry::enabled())
                fatal("perfbench: telemetry must be off in an "
                      "end-to-end run");
            reps.push_back(runRackRep(opts, false, setups, &host));
        }
        telemetry::setEnabled(true);
        runs.push_back(runRackRep(opts, true, 0));
        telemetry::setEnabled(false);
    } else {
        telemetry::Registry::global().resetAll();
        while (anotherRep(start, static_cast<int>(traced.size()),
                          opts.seconds / 2, 1)) {
            runs.push_back(runRackRep(opts, true, 1));
            telemetry::setEnabled(true);
            traced.push_back(runRackRep(opts, false, 1));
            telemetry::setEnabled(false);
        }
    }

    const std::uint64_t ref =
        opts.trace ? runs.front().digest : reps.front().digest;
    std::size_t steps = 0;
    for (const RackRep &r : reps) {
        steps += r.records.size();
        checkRep(report, r, ref, "rack records differ between repetitions");
    }
    for (const std::vector<RackRep> *set : {&traced, &runs}) {
        for (const RackRep &r : *set) {
            steps += r.records.size();
            checkRep(report, r, ref,
                     "rack records differ between the untraced and the "
                     "traced run");
        }
    }
    report.attempted(steps);
    const ClusterResult &totals = runs.front().totals;

    if (!opts.trace) {
        report.timings(timesOf(reps),
                       "peak-power measurement + 8 machine builds",
                       "one Cluster::step");
        const std::vector<ClusterEpochRecord> &recs = reps.front().records;
        report.metric("cap_error_pct", capErrorPct(recs, true), "%",
                      recs.size(), "sim; each machine vs its grant");
        report.metric("rack_cap_error_pct", capErrorPct(recs, false), "%",
                      recs.size(), "sim; rack power vs usable budget");
        report.metric("jobs_completed",
                      static_cast<double>(totals.completed), "count", 1,
                      "sim");
        return;
    }

    // --- per-layer (traced) ---------------------------------------
    reportPoolLayers(report, traced.size());
    reportSolverLayers(report);
    report.layer("trace.pending_hwm", registryValue("/trace/pending_hwm"),
                 traced.size(), "max pending jobs on one machine");

    std::vector<double> traced_epoch;
    for (const RackRep &r : traced)
        traced_epoch.insert(traced_epoch.end(), r.stepMs.begin(),
                            r.stepMs.end());
    reportOverhead(report, timesOf(runs), timesOf(traced));

    const ClusterConfig cfg = rackConfig(opts);
    clearPeakPowerCache();
    Clock::time_point ts = Clock::now();
    measuredPeakPower(cfg.machine, EngineConfig{cfg.shards, 1});
    report.layer("harness.peak_s", since(ts), 1,
                 "measuredPeakPower of one machine, memo cleared");
    ts = Clock::now();
    makeSimBackend(cfg.machine, workloads::mix(cfg.workload, kCores),
                   EngineConfig{cfg.shards, 1});
    report.layer("harness.build_s", since(ts), 1,
                 "makeSimBackend of one machine");

    const std::vector<double> arbiter_us =
        replayArbiter(traced.front(), report);
    report.layer("cluster.arbiter_us_p50", median(arbiter_us),
                 arbiter_us.size(), "replayed on recorded epochs");
    report.layer("cluster.dispatched",
                 static_cast<double>(totals.dispatched), 1, "jobs");
    report.layer("cluster.shed", static_cast<double>(totals.dropped), 1,
                 "jobs");
    report.layer("cluster.lost", static_cast<double>(totals.lost), 1,
                 "jobs");

    // Trace generation on its own: the rack's spec, drained.
    std::vector<double> gen_rate;
    std::size_t events = 0;
    for (int k = 0; k < 5; ++k) {
        std::unique_ptr<TraceSource> src = makeTraceSource(cfg.trace);
        TraceEvent ev;
        events = 0;
        ts = Clock::now();
        while (src->next(ev))
            ++events;
        gen_rate.push_back(static_cast<double>(events) / since(ts));
    }
    report.layer("trace.gen_events_per_s", median(gen_rate),
                 gen_rate.size(), std::to_string(events) + " events");

    // Largest share of a rack epoch. Machine epochs run inside the
    // cluster's pool and are not separable through its public API.
    const double epoch = median(traced_epoch);
    const double arbiter = median(arbiter_us) * 1e-3;
    const double gen = static_cast<double>(events) /
        static_cast<double>(traced.front().records.size()) /
        median(gen_rate) * 1e3;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "machine epochs: sim + harness + policies of 8 machines "
                  "over %d threads (%.0f%% of epoch time; arbiter %.2f%%, "
                  "trace generation %.2f%%)",
                  kThreads, 100.0 * (epoch - arbiter - gen) / epoch,
                  100.0 * arbiter / epoch, 100.0 * gen / epoch);
    report.dominant(buf);
}

} // namespace perfbench
