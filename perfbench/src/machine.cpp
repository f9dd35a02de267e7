/**
 * @file
 * paper64 and scale1024: one machine under ExperimentRunner with a
 * fixed epoch count and a mid-run budget step (0.9 -> 0.6 of peak).
 *
 * One repetition is what a `fastcap_sim` run pays: clear the
 * peak-power memo, build the runner (engine build + peak-power
 * measurement = setup), then step the epochs. The traced run adds a
 * timing decorator around the policy, replays the recorded operating
 * points through bare engine windows, replays the online fit, and
 * reads the metrics registry.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/fastcap_policy.hpp"
#include "core/model_fitter.hpp"
#include "harness/peak_power.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine/backend.hpp"
#include "telemetry/registry.hpp"
#include "util/rng.hpp"
#include "workload/spec_table.hpp"

namespace perfbench {

using namespace fastcap;

namespace {

struct MachineSpec
{
    const char *mix = "MIX3";
    int cores = 64;
    int shards = 0;       //!< 0 = auto (monolithic at <= 64 cores)
    int threads = 1;      //!< shard threads of the timed runs
    int epochs = 40;      //!< epochs per repetition
    int checkEpochs = 0;  //!< prefix re-run at 1 shard thread (sharded)
    int minReps = 3;
    int setups = 4; //!< setups per timed repetition (the last one runs)
    /**
     * HostSpeed exponent. paper64's epochs moved 1.5 to 2 times as
     * much as the probe, in log terms, in three sets of runs while the
     * host changed speed (probably because the 64-core DES state fits
     * a core's L2 on a quiet host and spills on a busy one, while the
     * probe's heap stays in L1). Ten runs that spread 0.135 (IQR /
     * median) with 1 spread 0.077 when rescaled with 1.5. scale1024
     * moved with the probe.
     */
    double speedExponent = 1.0;
};

MachineSpec
specFor(const Options &opts)
{
    MachineSpec m;
    if (opts.workload == "paper64") {
        m.epochs = opts.smoke ? 4 : 40;
        m.speedExponent = 1.5;
    } else {
        m.mix = "MIX1";
        m.cores = 1024;
        m.shards = 16;
        // Two shard threads, not four: at four on a 4-vCPU host, runs
        // of one seed drifted 30% with memory contention from other
        // tenants that the host probe does not see; at two, 11%.
        m.threads = 2;
        m.epochs = opts.smoke ? 3 : 12;
        m.checkEpochs = opts.smoke ? 2 : 4;
        m.setups = 1;
    }
    if (opts.smoke) {
        m.minReps = 1;
        m.setups = 1;
    }
    return m;
}

SimConfig
simConfig(const MachineSpec &m, std::uint64_t seed)
{
    SimConfig c = SimConfig::defaultConfig(m.cores);
    c.seed = splitmix64(c.seed, seed);
    c.validate();
    return c;
}

ExperimentConfig
experimentConfig(const MachineSpec &m, const SimConfig &c, int threads)
{
    ExperimentConfig e;
    // The run is a fixed epoch count: no application may finish.
    e.targetInstructions = 1e18;
    e.maxEpochs = m.epochs;
    e.shards = m.shards;
    e.shardThreads = threads;
    // The step comes a quarter of the way in, so the median epoch
    // lies inside the 0.6 regime instead of on the boundary between
    // the two regimes' epoch costs.
    char spec[128];
    std::snprintf(spec, sizeof spec,
                  "name=step|budget=step@0:0.9;step@%.17g:0.6",
                  static_cast<double>(std::max(1, m.epochs / 4)) *
                      c.epochLength);
    e.scenario = Scenario::parse(spec);
    return e;
}

/** One repetition: setup, then `epochs` timed steps. */
struct Rep : RepTimes
{
    std::vector<std::uint64_t> epochEvents; //!< DES events per epoch
    std::uint64_t digest = 0;
    std::uint64_t prefixDigest = 0; //!< digest of the first checkEpochs
    std::size_t badEpochs = 0;
    std::vector<EpochRecord> records;
    /** Per epoch, per core: profile-window dynamic power (traced). */
    std::vector<std::vector<double>> coreDyn;
};

/** What a repetition is for. */
enum class Kind
{
    Timed,  //!< pays the peak-power measurement, like every process
    Traced, //!< as Timed, and keeps the per-core counters for replays
    Check,  //!< reuses the memoized peak; only its records matter
};

/** One repetition; `host`, when given, is probed before each step. */
Rep
runRep(const MachineSpec &m, const Options &opts, CappingPolicy &policy,
       int threads, int epochs, Kind kind, HostSpeed *host = nullptr)
{
    const SimConfig cfg = simConfig(m, opts.seed);
    const ExperimentConfig ecfg = experimentConfig(m, cfg, threads);
    const bool keep_inputs = kind == Kind::Traced;

    Rep r;
    std::unique_ptr<ExperimentRunner> owner;
    Clock::time_point t0;
    for (int k = 0; k < (kind == Kind::Check ? 1 : m.setups); ++k) {
        std::vector<AppProfile> apps = workloads::mix(m.mix, m.cores);
        // The memo would hide the measurement from every setup after
        // the first one.
        if (kind != Kind::Check)
            clearPeakPowerCache();
        owner.reset();
        if (host)
            r.setupSpeed.push_back(host->now());
        t0 = Clock::now();
        owner = std::make_unique<ExperimentRunner>(cfg, std::move(apps),
                                                   policy, ecfg);
        r.setupS.push_back(since(t0));
    }
    ExperimentRunner &runner = *owner;

    Digest d;
    for (int e = 0; e < epochs; ++e) {
        const std::uint64_t ev = runner.system().eventsProcessed();
        if (host)
            r.stepSpeed.push_back(host->now());
        const Clock::time_point ts = Clock::now();
        EpochRecord rec = runner.step();
        r.stepMs.push_back(since(ts) * 1e3);
        r.epochEvents.push_back(runner.system().eventsProcessed() - ev);
        if (!finiteRecord(rec) ||
            rec.coreFreqIdx.size() != static_cast<std::size_t>(m.cores))
            ++r.badEpochs;
        d.add(rec);
        if (e + 1 == m.checkEpochs)
            r.prefixDigest = d.value();
        if (keep_inputs) {
            std::vector<double> dyn;
            for (const CoreModel &c : runner.lastInputs().cores)
                dyn.push_back(c.measuredPower - c.pStatic);
            r.coreDyn.push_back(std::move(dyn));
        }
        r.records.push_back(std::move(rec));
    }
    r.wallS = since(t0);
    r.digest = d.value();
    return r;
}

/** Simulated outcome of a run: capping accuracy and throughput. */
struct SimOutcome
{
    double capErrorPct = 0.0;
    double bips = 0.0;
};

SimOutcome
simOutcome(const std::vector<EpochRecord> &recs)
{
    double err_w = 0.0;
    double energy = 0.0;
    double instr = 0.0;
    double time = 0.0;
    for (const EpochRecord &e : recs) {
        double ips = 0.0;
        for (double v : e.ips)
            ips += v;
        instr += ips * e.duration;
        time += e.duration;
        if (e.budgetSaturated)
            continue;
        const double w = e.totalPower * e.duration;
        err_w += w * std::abs(e.totalPower - e.budget) / e.budget;
        energy += w;
    }
    SimOutcome o;
    o.capErrorPct = energy > 0.0 ? 100.0 * err_w / energy : 0.0;
    o.bips = time > 0.0 ? instr / time / 1e9 : 0.0;
    return o;
}

/** The windows of a repetition's epochs, re-run on a fresh engine. */
struct Replay
{
    double buildS = 0.0;
    std::vector<double> windowMs; //!< every runWindow call
    std::vector<double> epochMs;  //!< profile + exec window per epoch
    std::vector<std::uint64_t> epochEvents;
    double seconds = 0.0;
};

/**
 * Re-run the engine side of every recorded epoch: the profile window
 * at the incumbent point, the recorded decision's actuation, the exec
 * window, and the epoch loop's instruction extrapolation (so the
 * applications move through their phases as they did). The replay
 * reproduces the recorded DES work event for event.
 */
Replay
replayWindows(const MachineSpec &m, const SimConfig &cfg, const Rep &rep,
              int threads)
{
    Replay r;
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<SimBackend> be =
        makeSimBackend(cfg, workloads::mix(m.mix, m.cores),
                       EngineConfig{m.shards, threads});
    r.buildS = since(t0);

    for (const EpochRecord &rec : rep.records) {
        const std::uint64_t ev0 = be->eventsProcessed();
        Clock::time_point ts = Clock::now();
        be->runWindow(cfg.profileWindow);
        const double w1 = since(ts) * 1e3;

        bool core_changed = false;
        for (int i = 0; i < m.cores; ++i) {
            const std::size_t idx = rec.coreFreqIdx[static_cast<std::size_t>(i)];
            if (be->coreFreqIndex(i) != idx) {
                core_changed = true;
                be->coreFreqIndex(i, idx);
            }
        }
        const bool mem_changed = be->memFreqIndex() != rec.memFreqIdx;
        if (mem_changed)
            be->memFreqIndex(rec.memFreqIdx);

        ts = Clock::now();
        const WindowStats w2 = be->runWindow(cfg.execWindow);
        const double w2_ms = since(ts) * 1e3;

        const Seconds overhead =
            (core_changed ? cfg.coreTransitionTime : 0.0) +
            (mem_changed ? cfg.memTransitionTime : 0.0);
        const double scale =
            std::max(cfg.epochLength - cfg.profileWindow - overhead,
                     cfg.execWindow) /
            cfg.execWindow;
        for (int i = 0; i < m.cores; ++i)
            be->creditInstructions(
                i, static_cast<double>(
                       w2.cores[static_cast<std::size_t>(i)]
                           .counters.instructions) *
                       (scale - 1.0));

        r.windowMs.push_back(w1);
        r.windowMs.push_back(w2_ms);
        r.epochMs.push_back(w1 + w2_ms);
        r.epochEvents.push_back(be->eventsProcessed() - ev0);
        r.seconds += (w1 + w2_ms) * 1e-3;
    }
    return r;
}

/** The online fit replayed on a repetition's recorded counters. */
struct FitReplay
{
    std::vector<double> us;     //!< host time per epoch
    std::size_t badEpochs = 0;  //!< epochs with a non-finite model
};

FitReplay
replayFit(const SimConfig &cfg, const Rep &rep)
{
    const std::vector<double> ratios = cfg.coreLadder.ratios();
    ModelFitter fitter(static_cast<std::size_t>(cfg.numCores));
    FitReplay r;
    for (std::size_t e = 0; e < rep.coreDyn.size(); ++e) {
        const std::vector<double> &dyn = rep.coreDyn[e];
        const Clock::time_point ts = Clock::now();
        bool finite = true;
        for (std::size_t i = 0; i < dyn.size(); ++i) {
            // The profile window ran at the previous epoch's decision
            // (the top of the ladder before the first one).
            const double ratio = e == 0
                ? ratios.back()
                : ratios[rep.records[e - 1].coreFreqIdx[i]];
            fitter.observeCore(i, ratio, dyn[i]);
            // Read the model back, as buildInputs does.
            finite = finite && std::isfinite(fitter.core(i).scale);
        }
        r.us.push_back(since(ts) * 1e6);
        r.badEpochs += finite ? 0 : 1;
    }
    return r;
}

std::string
share(const char *layer, double part, double whole)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s (%.0f%% of epoch time)", layer,
                  whole > 0.0 ? 100.0 * part / whole : 0.0);
    return buf;
}

} // namespace

void
runMachine(const Options &opts, Report &report)
{
    const MachineSpec m = specFor(opts);
    const SimConfig cfg = simConfig(m, opts.seed);
    const Clock::time_point start = Clock::now();

    std::vector<Rep> reps;       // telemetry off: end-to-end numbers
    std::vector<Rep> traced;     // telemetry on + decorator
    std::vector<std::unique_ptr<TimedPolicy>> timers;

    if (!opts.trace) {
        HostSpeed host(m.threads, m.speedExponent);
        while (anotherRep(start, static_cast<int>(reps.size()),
                          opts.seconds, m.minReps)) {
            if (telemetry::enabled())
                fatal("perfbench: telemetry must be off in an "
                      "end-to-end run");
            FastCapPolicy policy;
            reps.push_back(runRep(m, opts, policy, m.threads, m.epochs,
                                  Kind::Timed, &host));
            // Only the first repetition's records are read; dropping
            // the rest keeps peak RSS independent of the repetition
            // count.
            if (reps.size() > 1)
                std::vector<EpochRecord>().swap(reps.back().records);
        }
    } else {
        // Alternate untraced and traced repetitions so both see the
        // same host conditions; their wall ratio is the overhead.
        telemetry::Registry::global().resetAll();
        while (anotherRep(start, static_cast<int>(reps.size()),
                          opts.seconds / 2, 1)) {
            FastCapPolicy policy;
            reps.push_back(runRep(m, opts, policy, m.threads, m.epochs,
                                  Kind::Timed));
            timers.push_back(std::make_unique<TimedPolicy>(
                std::make_unique<FastCapPolicy>()));
            telemetry::setEnabled(true);
            traced.push_back(runRep(m, opts, *timers.back(), m.threads,
                                    m.epochs, Kind::Traced));
            telemetry::setEnabled(false);
        }
    }

    // --- output checks ----------------------------------------------
    const std::uint64_t ref = reps.front().digest;
    std::size_t steps = 0;
    for (const std::vector<Rep> *set : {&reps, &traced}) {
        for (const Rep &r : *set) {
            steps += r.stepMs.size();
            report.check(r.badEpochs == 0, r.badEpochs,
                         "non-finite epoch record");
            report.check(r.digest == ref, r.stepMs.size(),
                         set == &reps
                             ? "epoch records differ between repetitions"
                             : "epoch records differ between the "
                               "untraced and the traced run");
        }
    }
    if (!opts.trace) {
        // Same configuration with telemetry on: results must not move.
        // The sharded engine re-runs a prefix to keep the check cheap.
        telemetry::setEnabled(true);
        FastCapPolicy policy;
        const int n = m.checkEpochs > 0 ? m.checkEpochs : m.epochs;
        const Rep on = runRep(m, opts, policy, m.threads, n, Kind::Check);
        telemetry::setEnabled(false);
        steps += on.stepMs.size();
        report.check(on.digest == (m.checkEpochs > 0
                                       ? reps.front().prefixDigest
                                       : ref),
                     on.stepMs.size(),
                     "epoch records differ between the untraced and the "
                     "traced run");
    }
    if (m.checkEpochs > 0) {
        FastCapPolicy policy;
        const Rep serial =
            runRep(m, opts, policy, 1, m.checkEpochs, Kind::Check);
        steps += serial.stepMs.size();
        report.check(serial.prefixDigest == reps.front().prefixDigest,
                     serial.stepMs.size(),
                     "epoch records differ between 1 and " +
                         std::to_string(m.threads) + " shard threads");
    }
    report.attempted(steps);

    if (!opts.trace) {
        const double rate =
            report.timings(timesOf(reps),
                           "engine build + peak-power measurement",
                           "one ExperimentRunner::step");
        // Every repetition runs the same DES events (the digests agree).
        const Rep &r0 = reps.front();
        report.metric("events_per_s",
                      static_cast<double>(sum(r0.epochEvents)) /
                          static_cast<double>(r0.stepMs.size()) * rate,
                      "1/s", r0.stepMs.size(),
                      "DES events per step x epochs_per_s");
        const SimOutcome o = simOutcome(reps.front().records);
        report.metric("cap_error_pct", o.capErrorPct, "%",
                      reps.front().records.size(), "sim");
        report.metric("sim_bips", o.bips, "BIPS",
                      reps.front().records.size(), "sim");
        return;
    }

    // --- per-layer (traced) ---------------------------------------
    // Registry totals cover every traced repetition.
    const std::vector<double> shard_events =
        registryValues("/engine/shard");

    std::vector<double> traced_epoch, decide_us;
    for (std::size_t i = 0; i < traced.size(); ++i) {
        traced_epoch.insert(traced_epoch.end(), traced[i].stepMs.begin(),
                            traced[i].stepMs.end());
        decide_us.insert(decide_us.end(), timers[i]->decideUs.begin(),
                         timers[i]->decideUs.end());
    }
    const Rep &first = traced.front();
    const TimedPolicy &first_timer = *timers.front();

    // Peak-power measurement on its own, memo cleared.
    clearPeakPowerCache();
    Clock::time_point ts = Clock::now();
    measuredPeakPower(cfg, EngineConfig{m.shards, m.threads});
    report.layer("harness.peak_s", since(ts), 1,
                 "measuredPeakPower, memo cleared");

    const Replay par = replayWindows(m, cfg, first, m.threads);
    const Replay serial =
        m.shards > 0 ? replayWindows(m, cfg, first, 1) : Replay{};
    std::vector<double> builds{par.buildS};
    if (m.shards > 0)
        builds.push_back(serial.buildS);
    // The replay copies the epoch loop's window arithmetic. A change
    // to that loop can make it diverge; the rows say so, and the timed
    // repetitions' digests remain the check on results.
    auto replayNote = [&first](const Replay &r, std::string note) {
        std::size_t diverged = 0;
        for (std::size_t e = 0; e < r.epochEvents.size(); ++e)
            diverged += r.epochEvents[e] != first.epochEvents[e];
        if (diverged > 0)
            note += "; replay diverged from the recorded DES events in " +
                std::to_string(diverged) + " of " +
                std::to_string(r.epochEvents.size()) + " epochs";
        return note;
    };
    report.layer("harness.build_s", median(builds), builds.size(),
                 "makeSimBackend");

    // The DES itself: the monolithic engine on paper64, the sharded
    // engine run serially on scale1024.
    const Replay &des = m.shards > 0 ? serial : par;
    report.layer("sim.window_ms_p50", median(des.windowMs),
                 des.windowMs.size(),
                 replayNote(des, m.shards > 0 ? "sharded engine, 1 thread"
                                              : "monolithic"));
    report.layer("sim.ns_per_event",
                 des.seconds * 1e9 /
                     static_cast<double>(sum(des.epochEvents)),
                 des.windowMs.size(), replayNote(des, "replayed windows"));
    report.layer("sim.events_per_epoch",
                 static_cast<double>(sum(first.epochEvents)) /
                     static_cast<double>(first.stepMs.size()),
                 first.stepMs.size(), "exact");
    if (m.shards > 0) {
        const double p = median(par.windowMs);
        const double s = median(serial.windowMs);
        report.layer("engine.window_ms_p50", p, par.windowMs.size(),
                     replayNote(par, std::to_string(m.threads) +
                                         " threads"));
        report.layer("engine.window_ms_serial_p50", s,
                     serial.windowMs.size(), "1 thread");
        report.layer("engine.parallel_eff", s / (m.threads * p),
                     par.windowMs.size(), "serial / (threads x parallel)");
        const double mean_ev =
            sum(shard_events) / static_cast<double>(shard_events.size());
        report.layer("engine.shard_event_imbalance",
                     *std::max_element(shard_events.begin(),
                                       shard_events.end()) / mean_ev,
                     shard_events.size(), "max/mean shard events");
        reportPoolLayers(report, traced.size());
    }

    // Epoch time not spent in decide() or in the engine windows:
    // buildInputs, fit, actuation, extrapolation.
    std::vector<double> residual;
    for (std::size_t e = 0; e < par.epochMs.size(); ++e)
        residual.push_back(first.stepMs[e] -
                           first_timer.decideUs[e] * 1e-3 - par.epochMs[e]);
    report.layer("harness.epoch_residual_ms", median(residual),
                 residual.size(), "epoch - decide - windows");

    report.layer("policies.decide_us_p50", median(decide_us),
                 decide_us.size());
    report.layer("policies.decide_share",
                 sum(decide_us) * 1e-3 / sum(traced_epoch),
                 decide_us.size(), "of epoch time");

    const FitReplay fit_replay = replayFit(cfg, first);
    const std::vector<double> &fit_us = fit_replay.us;
    report.attempted(fit_us.size());
    report.check(fit_replay.badEpochs == 0, fit_replay.badEpochs,
                 "non-finite fitted power model");
    report.layer("core.fit_us_p50", median(fit_us), fit_us.size(),
                 "ModelFitter replay on recorded counters");
    reportSolverLayers(report);
    std::vector<double> model_err;
    for (std::size_t e = 0; e < first.records.size(); ++e) {
        const double measured = first.records[e].totalPower;
        model_err.push_back(100.0 *
                            std::abs(first_timer.predictedPower[e] -
                                     measured) /
                            measured);
    }
    report.layer("core.power_model_err_pct", median(model_err),
                 model_err.size(), "|predicted - measured| / measured");
    reportOverhead(report, timesOf(reps), timesOf(traced));

    // Largest share of epoch time, from medians.
    const double epoch = median(traced_epoch);
    const double windows = median(par.epochMs);
    const double decide = median(decide_us) * 1e-3;
    const double fit = median(fit_us) * 1e-3;
    const double harness = median(residual) - fit;
    struct Part
    {
        const char *layer;
        double ms;
    };
    const Part parts[] = {
        {m.shards > 0 ? "engine (sharded windows)" : "sim (DES windows)",
         windows},
        {"policies (decide)", decide},
        {"core (fit)", fit},
        {"harness (inputs, actuation, extrapolation)", harness},
    };
    const Part *top = &parts[0];
    for (const Part &p : parts)
        if (p.ms > top->ms)
            top = &p;
    report.dominant(share(top->layer, top->ms, epoch));
}

} // namespace perfbench
