#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <utility>

#include <unistd.h>

#include "telemetry/registry.hpp"
#include "util/logging.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool
anotherRep(Clock::time_point start, int reps, double seconds,
           int min_reps)
{
    if (reps < min_reps)
        return true;
    const double elapsed = since(start);
    return elapsed + elapsed / reps <= seconds;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    const double hi = v[mid];
    if (v.size() % 2 == 1)
        return hi;
    const double lo = *std::max_element(v.begin(), v.begin() + mid);
    return 0.5 * (lo + hi);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
    return v[idx];
}

double
sum(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

std::uint64_t
sum(const std::vector<std::uint64_t> &v)
{
    return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}

Tail
tail(const std::vector<double> &v)
{
    // The highest percentile with at least 10 samples beyond it, but
    // no higher than p95: past two hundred samples the 11th-largest
    // step times host interrupts rather than the program. On governor
    // (~3000 steps a run) p99 spread 0.22 (IQR / median) over ten runs
    // while the median step spread 0.014. The 1% tail there is a high
    // quantile of the 12% of steps that follow a budget change; p95
    // is a middle one. Taking the sample with exactly k beyond moves
    // the percentile smoothly with the sample count, so runs of
    // slightly different length report the same statistic.
    Tail t;
    if (v.size() <= 10) {
        t.value = v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
        return t;
    }
    const std::size_t n = v.size();
    const std::size_t k = std::max<std::size_t>(10, (n + 19) / 20);
    std::vector<double> s = v;
    std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(n - k - 1),
                     s.end());
    t.value = s[n - k - 1];
    t.beyond = k;
    t.pct = 100.0 * static_cast<double>(n - k) / static_cast<double>(n);
    return t;
}

// --- digests --------------------------------------------------------

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        _h ^= (v >> (8 * i)) & 0xffU;
        _h *= 0x100000001b3ULL;
    }
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
}

void
Digest::add(const fastcap::EpochRecord &rec)
{
    add(static_cast<std::uint64_t>(rec.epoch));
    add(rec.startTime);
    add(rec.duration);
    add(rec.corePower);
    add(rec.memPower);
    add(rec.totalPower);
    add(rec.budget);
    for (std::size_t idx : rec.coreFreqIdx)
        add(static_cast<std::uint64_t>(idx));
    add(static_cast<std::uint64_t>(rec.memFreqIdx));
    for (double ips : rec.ips)
        add(ips);
    add(static_cast<std::uint64_t>(rec.evaluations));
    add(static_cast<std::uint64_t>(rec.budgetSaturated));
    add(static_cast<std::uint64_t>(rec.utilisationClamped));
    add(static_cast<std::uint64_t>(rec.traceDropped));
    add(static_cast<std::uint64_t>(rec.tracePending));
}

void
Digest::add(const fastcap::ClusterEpochRecord &rec)
{
    add(static_cast<std::uint64_t>(rec.epoch));
    add(rec.startTime);
    add(rec.rackBudget);
    add(rec.usableBudget);
    add(rec.assignedTotal);
    add(rec.totalPower);
    add(static_cast<std::uint64_t>(rec.aliveMachines));
    add(static_cast<std::uint64_t>(rec.busyCores));
    add(static_cast<std::uint64_t>(rec.pendingJobs));
    add(static_cast<std::uint64_t>(rec.dropped));
    add(static_cast<std::uint64_t>(rec.lost));
    for (double w : rec.machineBudget)
        add(w);
    for (double w : rec.machinePower)
        add(w);
}

void
Digest::add(const fastcap::PolicyDecision &dec)
{
    for (std::size_t idx : dec.coreFreqIdx)
        add(static_cast<std::uint64_t>(idx));
    add(static_cast<std::uint64_t>(dec.memFreqIdx));
    add(static_cast<std::uint64_t>(dec.evaluations));
    add(dec.predictedPower);
    add(static_cast<std::uint64_t>(dec.budgetSaturated));
}

bool
finiteRecord(const fastcap::EpochRecord &rec)
{
    bool ok = std::isfinite(rec.startTime) && std::isfinite(rec.duration) &&
        std::isfinite(rec.corePower) && std::isfinite(rec.memPower) &&
        std::isfinite(rec.totalPower) && std::isfinite(rec.budget) &&
        rec.budget > 0.0;
    for (double ips : rec.ips)
        ok = ok && std::isfinite(ips);
    return ok;
}

bool
finiteRecord(const fastcap::ClusterEpochRecord &rec)
{
    bool ok = std::isfinite(rec.rackBudget) &&
        std::isfinite(rec.usableBudget) &&
        std::isfinite(rec.assignedTotal) && std::isfinite(rec.totalPower);
    for (double w : rec.machineBudget)
        ok = ok && std::isfinite(w);
    for (double w : rec.machinePower)
        ok = ok && std::isfinite(w);
    return ok;
}

// --- timing policy --------------------------------------------------

TimedPolicy::TimedPolicy(std::unique_ptr<fastcap::CappingPolicy> inner)
    : _inner(std::move(inner))
{}

fastcap::PolicyDecision
TimedPolicy::decide(const fastcap::PolicyInputs &inputs)
{
    const Clock::time_point t0 = Clock::now();
    fastcap::PolicyDecision dec = _inner->decide(inputs);
    decideUs.push_back(since(t0) * 1e6);
    predictedPower.push_back(dec.predictedPower);
    return dec;
}

// --- registry readers -----------------------------------------------

double
registryValue(const std::string &path)
{
    for (const auto &kv : fastcap::telemetry::Registry::global().query(path))
        if (kv.first == path)
            return std::strtod(kv.second.c_str(), nullptr);
    return 0.0;
}

std::vector<double>
registryValues(const std::string &prefix)
{
    std::vector<double> out;
    for (const auto &kv :
         fastcap::telemetry::Registry::global().query(prefix))
        out.push_back(std::strtod(kv.second.c_str(), nullptr));
    return out;
}

namespace {

/** Histogram at `path`: total count and count above `threshold`. */
struct HistogramCounts
{
    std::uint64_t total = 0;
    std::uint64_t above = 0;
};

HistogramCounts
registryHistogram(const std::string &path, double threshold)
{
    // Rendered as "count=N le:E1=c1 le:E2=c2 ... le:inf=cK", where
    // bucket "le:E" holds samples in (previous edge, E].
    HistogramCounts h;
    for (const auto &kv :
         fastcap::telemetry::Registry::global().query(path)) {
        if (kv.first != path)
            continue;
        const std::string &s = kv.second;
        h.total = std::strtoull(s.c_str() + std::strlen("count="),
                                nullptr, 10);
        double lower = -INFINITY;
        for (std::size_t pos = s.find(" le:"); pos != std::string::npos;
             pos = s.find(" le:", pos + 1)) {
            const std::size_t eq = s.find('=', pos);
            const std::string edge = s.substr(pos + 4, eq - pos - 4);
            const double upper =
                edge == "inf" ? INFINITY : std::strtod(edge.c_str(), nullptr);
            const std::uint64_t c =
                std::strtoull(s.c_str() + eq + 1, nullptr, 10);
            if (lower >= threshold)
                h.above += c;
            lower = upper;
        }
    }
    return h;
}

} // namespace

double
peakRssMb()
{
    // VmHWM, not getrusage: ru_maxrss survives exec, so it would
    // report the launching process's peak when that one was larger.
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return NAN;
    char line[256];
    double kib = NAN;
    while (std::fgets(line, sizeof line, f) != nullptr)
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kib = std::strtod(line + 6, nullptr);
    std::fclose(f);
    return kib / 1024.0;
}

// --- per-layer metrics shared by the workloads ----------------------

void
reportSolverLayers(Report &report)
{
    const double solves = registryValue("/solver/solves");
    const double per_solve = solves > 0.0 ? 1.0 / solves : 0.0;
    const auto n = static_cast<std::size_t>(solves);
    report.layer("core.solver.evals_per_decide",
                 registryValue("/solver/evaluations") * per_solve, n);
    report.layer("core.solver.iters_per_decide",
                 registryValue("/solver/iterations") * per_solve, n);
    report.layer("core.solver.warm_hit_ratio",
                 registryValue("/solver/warm_hits") * per_solve, n);
    report.layer("core.solver.classes", registryValue("/solver/classes"),
                 n, "max over decides");
}

void
reportPoolLayers(Report &report, std::size_t tracedReps)
{
    const HistogramCounts wait = registryHistogram("/pool/wait_us", 1e4);
    report.layer("util.pool.tasks",
                 registryValue("/pool/tasks") /
                     static_cast<double>(tracedReps),
                 tracedReps, "per repetition");
    report.layer("util.pool.wait_gt_10ms_frac",
                 wait.total ? static_cast<double>(wait.above) /
                                  static_cast<double>(wait.total)
                            : 0.0,
                 wait.total);
}

void
reportOverhead(Report &report, const std::vector<const RepTimes *> &untraced,
               const std::vector<const RepTimes *> &traced)
{
    std::vector<double> ratio;
    for (std::size_t i = 0; i < traced.size(); ++i)
        ratio.push_back(traced[i]->wallS / untraced[i]->wallS);
    report.layer("telemetry.overhead_frac", median(ratio) - 1.0,
                 ratio.size(), "median over adjacent pairs");
}

// --- report ---------------------------------------------------------

namespace {

struct Spec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics every workload reports (BENCHMARK.json). */
const Spec kHeadline[] = {
    {"setup_s", "s"},         {"wall_s", "s"},
    {"epoch_ms_p50", "ms"},   {"epoch_ms_tail", "ms"},
    {"epochs_per_s", "1/s"},  {"peak_rss_mb", "MB"},
    {"cap_error_pct", "%"},
};

/** Per-layer metrics of a traced run (BENCHMARK.json). */
const Spec kLayers[] = {
    {"harness.peak_s", "s"},
    {"harness.build_s", "s"},
    {"harness.epoch_residual_ms", "ms"},
    {"sim.window_ms_p50", "ms"},
    {"sim.ns_per_event", "ns"},
    {"sim.events_per_epoch", "count"},
    {"engine.window_ms_p50", "ms"},
    {"engine.window_ms_serial_p50", "ms"},
    {"engine.parallel_eff", "ratio"},
    {"engine.shard_event_imbalance", "ratio"},
    {"util.pool.tasks", "count"},
    {"util.pool.wait_gt_10ms_frac", "ratio"},
    {"policies.decide_us_p50", "us"},
    {"policies.decide_share", "ratio"},
    {"core.fit_us_p50", "us"},
    {"core.solver.evals_per_decide", "count"},
    {"core.solver.iters_per_decide", "count"},
    {"core.solver.warm_hit_ratio", "ratio"},
    {"core.solver.classes", "count"},
    {"core.power_model_err_pct", "%"},
    {"cluster.arbiter_us_p50", "us"},
    {"cluster.dispatched", "count"},
    {"cluster.shed", "count"},
    {"cluster.lost", "count"},
    {"trace.gen_events_per_s", "1/s"},
    {"trace.pending_hwm", "count"},
    {"telemetry.overhead_frac", "ratio"},
};

std::string
hostFacts(const Options &opts)
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "host: nproc=%ld build=%s compiler=\"%s\" commit=%s",
                  sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
                  PERFBENCH_COMPILER, opts.commit.c_str());
    return buf;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

Report::Report(const Options &opts) : _opts(opts)
{
    for (const Spec &s : kHeadline)
        _headline.push_back(Row{s.name, 0.0, s.unit, 0, "", false});
    for (const Spec &s : kLayers)
        _layers.push_back(Row{s.name, 0.0, s.unit, 0, "n/a", false});
}

Report::Row *
Report::find(std::vector<Row> &rows, const std::string &name)
{
    for (Row &r : rows)
        if (r.name == name)
            return &r;
    return nullptr;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit, std::size_t samples,
               const std::string &note)
{
    Row *r = find(_headline, name);
    if (r == nullptr) {
        _extra.push_back(Row{name, 0.0, unit, 0, "", false});
        r = &_extra.back();
    } else if (r->unit != unit) {
        fastcap::panic("perfbench: metric %s has unit %s, not %s",
                       name.c_str(), r->unit.c_str(), unit.c_str());
    }
    r->value = value;
    r->samples = samples;
    r->note = note;
    r->set = true;
}

void
Report::layer(const std::string &name, double value, std::size_t samples,
              const std::string &note)
{
    Row *r = find(_layers, name);
    if (r == nullptr)
        fastcap::panic("perfbench: unknown per-layer metric %s",
                       name.c_str());
    r->value = value;
    r->samples = samples;
    r->note = note;
    r->set = true;
}

double
Report::timings(const std::vector<const RepTimes *> &reps,
                const std::string &setupNote, const std::string &stepNote)
{
    // The first repetition warms the allocator and the caches; later
    // ones reuse what it set up, as a long-running process would, so
    // it is left out when there are others. Every repetition runs the
    // same steps, so step k's cost is the median of its repetitions'
    // scaled times, which leaves out a step the host interrupted.
    const std::vector<const RepTimes *> timed(
        reps.begin() + (reps.size() > 1 ? 1 : 0), reps.end());
    const std::size_t n = timed.front()->stepMs.size();
    std::vector<std::vector<double>> perStep(n);
    std::vector<double> setups, steps, speeds;
    for (const RepTimes *r : timed) {
        if (r->stepMs.size() != n || r->stepSpeed.size() != n ||
            r->setupSpeed.size() != r->setupS.size())
            fastcap::panic("perfbench: repetitions ran different steps");
        for (std::size_t k = 0; k < n; ++k) {
            perStep[k].push_back(r->stepMs[k] * r->stepSpeed[k]);
            steps.push_back(r->stepMs[k] * r->stepSpeed[k]);
        }
        for (std::size_t k = 0; k < r->setupS.size(); ++k)
            setups.push_back(r->setupS[k] * r->setupSpeed[k]);
        speeds.insert(speeds.end(), r->stepSpeed.begin(),
                      r->stepSpeed.end());
    }
    std::vector<double> typical;
    for (const std::vector<double> &k : perStep)
        typical.push_back(median(k));
    const double setup = median(setups);
    const double loop = sum(typical) * 1e-3;
    const double rate = static_cast<double>(n) / loop;
    const std::string of = "median of " + std::to_string(timed.size()) +
        " repetitions after a warm-up";

    const Tail tl = tail(steps);
    char note[64];
    std::snprintf(note, sizeof note, "p%.4g, %zu samples beyond", tl.pct,
                  tl.beyond);
    metric("setup_s", setup, "s", setups.size(),
           "median setup; " + setupNote);
    metric("wall_s", setup + loop, "s", steps.size(),
           "median setup + each step's " + of);
    metric("epoch_ms_p50", median(typical), "ms", steps.size(),
           "median over steps of each step's " + of + "; " + stepNote);
    metric("epoch_ms_tail", tl.value, "ms", steps.size(),
           std::string(note) + ", every repetition");
    metric("epochs_per_s", rate, "1/s", steps.size(),
           "steps / sum of each step's " + of);
    metric("peak_rss_mb", peakRssMb(), "MB", 1, "VmHWM");
    metric("host_speed", median(speeds), "ratio", speeds.size(),
           "median reference probe time / this host's; each host time "
           "above is multiplied by the one taken before it");
    return rate;
}

void
Report::check(bool ok, std::size_t steps, const std::string &what)
{
    if (ok)
        return;
    _failed += steps;
    _failures.push_back(what);
}

int
Report::print() const
{
    const std::vector<Row> &json_rows = _opts.trace ? _layers : _headline;
    std::vector<std::string> problems = _failures;
    for (const Row &r : json_rows) {
        if (!_opts.trace && !r.set)
            problems.push_back("metric " + r.name + " was not measured");
        if (!std::isfinite(r.value))
            problems.push_back("metric " + r.name + " is not finite");
    }
    for (const Row &r : _extra)
        if (!std::isfinite(r.value))
            problems.push_back("metric " + r.name + " is not finite");
    const bool correct = problems.empty() && _attempted > 0;
    std::size_t failed = _failed;
    if (!correct && failed == 0)
        failed = 1;

    std::printf("perfbench workload=%s seed=%llu mode=%s%s\n",
                _opts.workload.c_str(),
                static_cast<unsigned long long>(_opts.seed),
                _opts.trace ? "traced (per-layer)"
                            : "end-to-end (telemetry off)",
                _opts.smoke ? " smoke" : "");
    std::printf("%s\n", hostFacts(_opts).c_str());
    std::printf("%-32s %16s %-6s %8s  %s\n", "metric", "value", "unit",
                "samples", "note");
    auto row = [](const Row &r) {
        std::printf("%-32s %16.6g %-6s %8zu  %s\n", r.name.c_str(),
                    r.value, r.unit.c_str(), r.samples, r.note.c_str());
    };
    if (_opts.trace) {
        for (const Row &r : _layers)
            row(r);
        if (!_dominant.empty())
            std::printf("largest share of step time: %s\n",
                        _dominant.c_str());
    } else {
        for (const Row &r : _headline)
            row(r);
        for (const Row &r : _extra)
            row(r);
    }
    std::printf("checks: %zu steps attempted, %zu failed\n", _attempted,
                failed);
    for (const std::string &p : problems)
        std::printf("FAILED: %s\n", p.c_str());

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(_attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
        const Row &r = json_rows[i];
        json += (i ? ", \"" : "\"") + r.name + "\": {\"value\": " +
            jsonNumber(r.value) + ", \"unit\": \"" + r.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace perfbench
