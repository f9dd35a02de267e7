/**
 * @file
 * governor: FastCap as a real-hardware governor, with no simulator.
 *
 * Each control step feeds one epoch of synthetic 1024-core counters
 * (the bench/bench_inputs.hpp generator plus seeded noise) through
 * ModelFitter::observeCore and then calls decide(); the next step's
 * counters are taken at the frequencies just decided. The budget
 * follows a fixed step schedule, so the solver's warm start both
 * hits (budget unchanged) and misses (budget stepped).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_inputs.hpp"
#include "common.hpp"
#include "core/fastcap_policy.hpp"
#include "core/model_fitter.hpp"
#include "telemetry/registry.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace fastcap;

namespace {

constexpr std::size_t kCores = 1024;
constexpr std::size_t kLevels = 10;
/**
 * The budget is held for 8-step segments and visits 32 fractions of
 * max power, 0.50 to 0.81 in steps of 0.01, in a scrambled order, so
 * it steps both up and down by varying amounts. The capping error at
 * one budget depends on the operating point the solver lands on, so
 * averaging over many budgets keeps cap_error_pct from hinging on a
 * few of them (with four budgets, its spread over ten seeds was 0.30).
 */
constexpr int kSegment = 8;
constexpr int kBudgets = 32;

double
budgetFraction(int step)
{
    return 0.5 + 0.01 * ((step / kSegment * 13) % kBudgets);
}
/** Relative amplitude of the counter noise. */
constexpr double kNoise = 0.02;

int
stepsFor(const Options &opts)
{
    return opts.smoke ? 16 : 256;
}

/** Power the synthetic "hardware" draws at a decided operating point. */
Watts
truePower(const PolicyInputs &truth, const PolicyDecision &dec)
{
    Watts p = truth.staticPower() +
        truth.memory.pm *
            std::pow(truth.memRatios[dec.memFreqIdx], truth.memory.beta);
    for (std::size_t i = 0; i < truth.cores.size(); ++i) {
        const CoreModel &c = truth.cores[i];
        p += c.pi * std::pow(truth.coreRatios[dec.coreFreqIdx[i]], c.alpha);
    }
    return p;
}

/**
 * The governor and the synthetic machine it controls. Constructing
 * one is the workload's setup: synthesize the counters' ground truth,
 * build the fitter and the policy, and bootstrap the fitter with the
 * top three ladder points.
 */
struct Governor
{
    explicit Governor(std::uint64_t seed)
        : truth(benchutil::syntheticInputs(kCores, kLevels, kLevels,
                                           splitmix64(42, seed))),
          in(truth), noise(splitmix64(seed, 1)), fitter(kCores),
          coreIdx(kCores, kLevels - 1), memIdx(kLevels - 1)
    {
        maxPower = truth.staticPower() + truth.memory.pm;
        for (const CoreModel &c : truth.cores)
            maxPower += c.pi;
        for (std::size_t k = kLevels - 3; k < kLevels; ++k) {
            const double x = truth.coreRatios[k];
            for (std::size_t i = 0; i < kCores; ++i)
                fitter.observeCore(i, x,
                                   sample(truth.cores[i].pi *
                                          std::pow(x, truth.cores[i].alpha)));
            const double xm = truth.memRatios[k];
            fitter.observeMemory(
                xm, sample(truth.memory.pm * std::pow(xm, truth.memory.beta)));
        }
    }

    /** A counter reading: the true value with seeded noise. */
    Watts
    sample(Watts w)
    {
        return w * (1.0 + kNoise * (noise.uniform() - 0.5));
    }

    const PolicyInputs truth; //!< the synthetic hardware
    PolicyInputs in;          //!< what the policy sees
    Watts maxPower = 0.0;
    Rng noise;
    ModelFitter fitter;
    FastCapPolicy policy;
    std::vector<std::size_t> coreIdx; //!< incumbent operating point
    std::size_t memIdx;
};

struct GovRep : RepTimes
{
    std::vector<double> fitUs;
    std::vector<double> decideUs;
    std::vector<double> modelErrPct;
    /** Power-weighted |true power - budget| / budget, and its weight. */
    double capErrW = 0.0;
    Watts capPowerW = 0.0;
    std::uint64_t digest = 0;
    std::size_t badSteps = 0;
};

/**
 * Set the governor up `setups` times, then run the last one. `host`,
 * when given, is probed before each setup and step.
 */
GovRep
runGovRep(const Options &opts, int setups, HostSpeed *host = nullptr)
{
    GovRep r;
    std::unique_ptr<Governor> owner;
    Clock::time_point t0;
    for (int k = 0; k < setups; ++k) {
        owner.reset();
        if (host)
            r.setupSpeed.push_back(host->now());
        t0 = Clock::now();
        owner = std::make_unique<Governor>(opts.seed);
        r.setupS.push_back(since(t0));
    }
    Governor &g = *owner;
    const PolicyInputs &truth = g.truth;

    Digest d;
    for (int s = 0; s < stepsFor(opts); ++s) {
        if (host)
            r.stepSpeed.push_back(host->now());
        const Clock::time_point ts = Clock::now();
        // Fit: this epoch's counters at the incumbent frequencies.
        for (std::size_t i = 0; i < kCores; ++i) {
            const CoreModel &t = truth.cores[i];
            const double x = truth.coreRatios[g.coreIdx[i]];
            const Watts dyn = g.sample(t.pi * std::pow(x, t.alpha));
            g.fitter.observeCore(i, x, dyn);
            const FittedModel fm = g.fitter.core(i);
            g.in.cores[i].pi = fm.scale;
            g.in.cores[i].alpha = fm.exponent;
            g.in.cores[i].measuredPower = dyn + t.pStatic;
        }
        const double xm = truth.memRatios[g.memIdx];
        const Watts mem_dyn =
            g.sample(truth.memory.pm * std::pow(xm, truth.memory.beta));
        g.fitter.observeMemory(xm, mem_dyn);
        g.in.memory.pm = g.fitter.memory().scale;
        g.in.memory.beta = g.fitter.memory().exponent;
        g.in.memory.measuredPower = mem_dyn + truth.memory.pStatic;
        g.in.budget =
            budgetFraction(s) *
            g.maxPower;
        const Clock::time_point tf = Clock::now();

        const PolicyDecision dec = g.policy.decide(g.in);
        const Clock::time_point te = Clock::now();
        r.fitUs.push_back(std::chrono::duration<double, std::micro>(tf - ts)
                              .count());
        r.decideUs.push_back(
            std::chrono::duration<double, std::micro>(te - tf).count());
        r.stepMs.push_back(
            std::chrono::duration<double, std::milli>(te - ts).count());

        bool ok = dec.coreFreqIdx.size() == kCores &&
            dec.memFreqIdx < kLevels && std::isfinite(dec.predictedPower);
        for (std::size_t idx : dec.coreFreqIdx)
            ok = ok && idx < kLevels;
        if (!ok) {
            ++r.badSteps;
            continue;
        }
        const Watts actual = truePower(truth, dec);
        r.modelErrPct.push_back(100.0 * std::abs(dec.predictedPower - actual) /
                                actual);
        // Control steps are of equal length: power weights like energy.
        if (!dec.budgetSaturated) {
            r.capErrW += actual * std::abs(actual - g.in.budget) / g.in.budget;
            r.capPowerW += actual;
        }
        d.add(dec);
        g.coreIdx = dec.coreFreqIdx;
        g.memIdx = dec.memFreqIdx;
    }
    r.wallS = since(t0);
    r.digest = d.value();
    return r;
}

std::vector<double>
pooled(const std::vector<GovRep> &reps, std::vector<double> GovRep::*field)
{
    std::vector<double> out;
    for (const GovRep &r : reps)
        out.insert(out.end(), (r.*field).begin(), (r.*field).end());
    return out;
}

} // namespace

void
runGovernor(const Options &opts, Report &report)
{
    const Clock::time_point start = Clock::now();
    const int min_reps = opts.smoke ? 1 : 5;
    const int setups = opts.smoke ? 1 : 4;

    std::vector<GovRep> reps;   // telemetry off
    std::vector<GovRep> traced; // telemetry on
    if (!opts.trace) {
        HostSpeed host(1, 1.0);
        while (anotherRep(start, static_cast<int>(reps.size()),
                          opts.seconds, min_reps)) {
            if (telemetry::enabled())
                fatal("perfbench: telemetry must be off in an "
                      "end-to-end run");
            reps.push_back(runGovRep(opts, setups, &host));
        }
        telemetry::setEnabled(true);
        traced.push_back(runGovRep(opts, 1));
        telemetry::setEnabled(false);
    } else {
        telemetry::Registry::global().resetAll();
        while (anotherRep(start, static_cast<int>(traced.size()),
                          opts.seconds, 1)) {
            reps.push_back(runGovRep(opts, 1));
            telemetry::setEnabled(true);
            traced.push_back(runGovRep(opts, 1));
            telemetry::setEnabled(false);
        }
    }

    const std::uint64_t ref = reps.front().digest;
    std::size_t steps = 0;
    for (const GovRep &r : reps) {
        steps += r.stepMs.size();
        report.check(r.badSteps == 0, r.badSteps,
                     "decision out of range or non-finite");
        report.check(r.digest == ref, r.stepMs.size(),
                     "decisions differ between repetitions");
    }
    for (const GovRep &r : traced) {
        steps += r.stepMs.size();
        report.check(r.badSteps == 0, r.badSteps,
                     "decision out of range or non-finite");
        report.check(r.digest == ref, r.stepMs.size(),
                     "decisions differ between the untraced and the traced "
                     "run");
    }
    report.attempted(steps);

    if (!opts.trace) {
        report.timings(timesOf(reps),
                       "input synthesis + governor construction",
                       "one control step (fit + decide)");
        const GovRep &r0 = reps.front();
        report.metric("cap_error_pct",
                      r0.capPowerW > 0.0 ? 100.0 * r0.capErrW / r0.capPowerW
                                         : 0.0,
                      "%", r0.stepMs.size(),
                      "synthetic true power vs budget");
        std::vector<double> control = pooled(reps, &GovRep::stepMs);
        for (double &v : control)
            v *= 1e3;
        report.metric("control_us_p50", median(control), "us",
                      control.size(), "every repetition");
        report.metric("control_us_p99", percentile(control, 99.0), "us",
                      control.size(), "every repetition");
        return;
    }

    const std::vector<double> fit = pooled(traced, &GovRep::fitUs);
    const std::vector<double> decide = pooled(traced, &GovRep::decideUs);
    std::vector<double> control = pooled(traced, &GovRep::stepMs);
    for (double &v : control)
        v *= 1e3;
    const std::vector<double> err = pooled(traced, &GovRep::modelErrPct);
    report.layer("core.fit_us_p50", median(fit), fit.size(),
                 "1024 observeCore + model reads");
    report.layer("policies.decide_us_p50", median(decide), decide.size());
    report.layer("policies.decide_share", sum(decide) / sum(control),
                 decide.size(), "of control-step time");
    reportSolverLayers(report);
    report.layer("core.power_model_err_pct", median(err), err.size(),
                 "|predicted - synthetic true power| / true");
    reportOverhead(report, timesOf(reps), timesOf(traced));

    const double d = sum(decide);
    const double f = sum(fit);
    const double c = sum(control);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s (%.0f%% of control-step time; %s %.0f%%)",
                  d >= f ? "policies (decide)" : "core (fit)",
                  100.0 * std::max(d, f) / c,
                  d >= f ? "core fit" : "policies decide",
                  100.0 * std::min(d, f) / c);
    report.dominant(buf);
}

} // namespace perfbench
