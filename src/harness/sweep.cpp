#include "harness/sweep.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdlib>
#include <set>

#include "harness/peak_power.hpp"
#include "policies/registry.hpp"
#include "trace/trace_generator.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "util/wallclock.hpp"
#include "workload/spec_table.hpp"

namespace fastcap {

namespace {

std::string
fmt(double v)
{
    char buf[32];
    checkedSnprintf(buf, sizeof(buf), "%.6g", v);
    return std::string(buf);
}

std::string
fmtSeed(std::uint64_t seed)
{
    char buf[32];
    checkedSnprintf(buf, sizeof(buf), "0x%016" PRIx64, seed);
    return std::string(buf);
}

/** Escape a string for a JSON value: quotes, backslashes, controls. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += static_cast<char>(c);
        } else if (c < 0x20) {
            char buf[8];
            checkedSnprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += static_cast<char>(c);
        }
    }
    return out;
}

/** Mean time-per-instruction over completed applications, seconds. */
Seconds
meanTpi(const ExperimentResult &res)
{
    double acc = 0.0;
    int n = 0;
    for (const AppResult &a : res.apps) {
        if (a.completed) {
            acc += a.tpi;
            ++n;
        }
    }
    return n ? acc / n : 0.0;
}

} // namespace

std::vector<SweepConfig>
SweepGrid::configsForCores(const std::vector<int> &core_counts)
{
    std::vector<SweepConfig> out;
    out.reserve(core_counts.size());
    for (int n : core_counts)
        out.push_back({std::to_string(n) + "c",
                       SimConfig::defaultConfig(n)});
    return out;
}

void
SweepGrid::validate() const
{
    if (configs.empty())
        fatal("SweepGrid: need at least one system configuration");
    if (workloads.empty())
        fatal("SweepGrid: need at least one workload");
    if (policies.empty())
        fatal("SweepGrid: need at least one policy");
    if (budgetFractions.empty())
        fatal("SweepGrid: need at least one budget fraction");
    if (replicates < 1)
        fatal("SweepGrid: replicates must be >= 1 (got %d)",
              replicates);
    if (targetInstructions <= 0.0)
        fatal("SweepGrid: targetInstructions must be positive");
    if (maxEpochs < 1)
        fatal("SweepGrid: maxEpochs must be >= 1");
    if (shards < 0)
        fatal("SweepGrid: shards must be >= 0 (got %d)", shards);
    if (shardThreads < 0)
        fatal("SweepGrid: shardThreads must be >= 0 (got %d)",
              shardThreads);
    for (const SweepConfig &c : configs) {
        if (c.name.empty())
            fatal("SweepGrid: configs need non-empty names");
        c.sim.validate();
    }
    for (double b : budgetFractions)
        if (b <= 0.0 || b > 1.0)
            fatal("SweepGrid: budget fraction %g not in (0, 1]", b);
    // Scenario problems fail fast here rather than mid-sweep on a
    // worker thread, mirroring the workload/policy name checks.
    for (const Scenario &sc : scenarios) {
        if (sc.name.empty())
            fatal("SweepGrid: scenarios need non-empty names");
        for (const WorkloadEvent &ev : sc.workload.events())
            for (const SweepConfig &c : configs)
                if (ev.core >= c.sim.numCores)
                    fatal("SweepGrid: scenario '%s' event at t=%g "
                          "targets core %d but config '%s' has %d "
                          "cores", sc.name.c_str(), ev.time, ev.core,
                          c.name.c_str(), c.sim.numCores);
        if (!sc.trace.empty()) {
            // Every grid point opens the source independently, so a
            // single-pass stream cannot feed a sweep.
            if (sc.trace == "-")
                fatal("SweepGrid: scenario '%s' reads its trace from "
                      "stdin; sweeps replay each source once per run "
                      "and need a file or gen: spec",
                      sc.name.c_str());
            makeTraceSource(sc.trace); // unreadable/malformed -> fatal
        }
    }
    // Unknown workload/policy names fail fast here rather than
    // mid-sweep on a worker thread.
    for (const std::string &w : workloads)
        workloads::mix(w, configs.front().sim.numCores);
    for (const std::string &p : policies)
        makePolicy(p);
    // Duplicates would silently run the same nominal coordinates
    // twice (with different derived seeds) and make name lookups
    // ambiguous.
    auto rejectDuplicates = [](const std::vector<std::string> &names,
                               const char *what) {
        std::set<std::string> seen;
        for (const std::string &n : names)
            if (!seen.insert(n).second)
                fatal("SweepGrid: duplicate %s '%s'", what,
                      n.c_str());
    };
    rejectDuplicates(workloads, "workload");
    rejectDuplicates(policies, "policy");
    std::vector<std::string> config_names;
    for (const SweepConfig &c : configs)
        config_names.push_back(c.name);
    rejectDuplicates(config_names, "config name");
    std::vector<std::string> scenario_names;
    for (const Scenario &sc : scenarios)
        scenario_names.push_back(sc.name);
    rejectDuplicates(scenario_names, "scenario name");
}

const std::string &
SweepGrid::scenarioName(std::size_t idx) const
{
    static const std::string constant = "constant";
    if (scenarios.empty()) {
        if (idx != 0)
            panic("SweepGrid::scenarioName: index %zu without a "
                  "scenario axis", idx);
        return constant;
    }
    if (idx >= scenarios.size())
        panic("SweepGrid::scenarioName: index %zu out of range", idx);
    return scenarios[idx].name;
}

bool
SweepGrid::hasTraceScenario() const
{
    for (const Scenario &sc : scenarios)
        if (!sc.trace.empty())
            return true;
    return false;
}

std::size_t
SweepGrid::runCount() const
{
    return configs.size() * workloads.size() * scenarioCount() *
        policies.size() * budgetFractions.size() *
        static_cast<std::size_t>(replicates);
}

std::size_t
SweepGrid::runIndexOf(std::size_t config_idx, std::size_t workload_idx,
                      std::size_t scenario_idx, std::size_t policy_idx,
                      std::size_t budget_idx, int replicate) const
{
    if (config_idx >= configs.size() ||
        workload_idx >= workloads.size() ||
        scenario_idx >= scenarioCount() ||
        policy_idx >= policies.size() ||
        budget_idx >= budgetFractions.size() || replicate < 0 ||
        replicate >= replicates)
        panic("SweepGrid::runIndexOf: coordinates out of range");
    const auto reps = static_cast<std::size_t>(replicates);
    return ((((config_idx * workloads.size() + workload_idx) *
                  scenarioCount() +
              scenario_idx) *
                 policies.size() +
             policy_idx) *
                budgetFractions.size() +
            budget_idx) *
        reps +
        static_cast<std::size_t>(replicate);
}

std::size_t
SweepGrid::runIndexOf(std::size_t config_idx, std::size_t workload_idx,
                      std::size_t policy_idx, std::size_t budget_idx,
                      int replicate) const
{
    return runIndexOf(config_idx, workload_idx, 0, policy_idx,
                      budget_idx, replicate);
}

SweepPoint
SweepGrid::point(std::size_t run_index) const
{
    if (run_index >= runCount())
        panic("SweepGrid::point: run index %zu out of range (%zu runs)",
              run_index, runCount());
    const auto reps = static_cast<std::size_t>(replicates);
    std::size_t rest = run_index;

    SweepPoint p;
    p.runIndex = run_index;
    p.replicate = static_cast<int>(rest % reps);
    rest /= reps;
    p.budgetIdx = rest % budgetFractions.size();
    rest /= budgetFractions.size();
    p.policyIdx = rest % policies.size();
    rest /= policies.size();
    p.scenarioIdx = rest % scenarioCount();
    rest /= scenarioCount();
    p.workloadIdx = rest % workloads.size();
    rest /= workloads.size();
    p.configIdx = rest;

    p.config = configs[p.configIdx].name;
    p.workload = workloads[p.workloadIdx];
    p.scenario = scenarioName(p.scenarioIdx);
    p.policy = policies[p.policyIdx];
    p.budgetFraction = budgetFractions[p.budgetIdx];
    if (pairSeedsAcrossPolicies) {
        // Trace index: collapse the policy and budget axes so paired
        // runs draw the identical random trace. With no scenario
        // axis this reduces to the historical (config, workload,
        // replicate) index, keeping old seeds bit-identical.
        const std::size_t trace =
            ((p.configIdx * workloads.size() + p.workloadIdx) *
                 scenarioCount() +
             p.scenarioIdx) *
                reps +
            static_cast<std::size_t>(p.replicate);
        p.seed = splitmix64(baseSeed, trace);
    } else {
        p.seed = splitmix64(baseSeed, run_index);
    }
    return p;
}

std::size_t
SweepGrid::workloadIndex(const std::string &name) const
{
    const auto it =
        std::find(workloads.begin(), workloads.end(), name);
    if (it == workloads.end())
        fatal("SweepGrid: workload '%s' not in grid", name.c_str());
    return static_cast<std::size_t>(it - workloads.begin());
}

std::size_t
SweepGrid::scenarioIndex(const std::string &name) const
{
    if (scenarios.empty()) {
        if (name == "constant")
            return 0;
        fatal("SweepGrid: scenario '%s' not in grid (no scenario "
              "axis)", name.c_str());
    }
    for (std::size_t i = 0; i < scenarios.size(); ++i)
        if (scenarios[i].name == name)
            return i;
    fatal("SweepGrid: scenario '%s' not in grid", name.c_str());
}

std::size_t
SweepGrid::policyIndex(const std::string &name) const
{
    const auto it = std::find(policies.begin(), policies.end(), name);
    if (it == policies.end())
        fatal("SweepGrid: policy '%s' not in grid", name.c_str());
    return static_cast<std::size_t>(it - policies.begin());
}

const SweepRun &
SweepResult::at(std::size_t run_index) const
{
    if (run_index >= runs.size())
        panic("SweepResult::at: run index %zu out of range", run_index);
    return runs[run_index];
}

const SweepRun &
SweepResult::at(std::size_t config_idx, std::size_t workload_idx,
                std::size_t policy_idx, std::size_t budget_idx,
                int replicate) const
{
    return at(grid.runIndexOf(config_idx, workload_idx, policy_idx,
                              budget_idx, replicate));
}

const SweepRun &
SweepResult::at(std::size_t config_idx, std::size_t workload_idx,
                std::size_t scenario_idx, std::size_t policy_idx,
                std::size_t budget_idx, int replicate) const
{
    return at(grid.runIndexOf(config_idx, workload_idx, scenario_idx,
                              policy_idx, budget_idx, replicate));
}

void
SweepResult::writeCsv(std::FILE *out) const
{
    // The scenario column appears only when the grid declares the
    // axis: constant-scenario output stays byte-identical to the
    // pre-scenario format.
    const bool with_scenario = grid.hasScenarioAxis();
    // Replay-shedding columns only when a scenario carries a trace:
    // they are meaningless (all-zero) otherwise, and constant-grid
    // goldens must stay byte-identical.
    const bool with_trace = grid.hasTraceScenario();
    CsvWriter csv(out);
    std::vector<std::string> header{
        "run", "config", "workload", "policy", "budget",
        "replicate", "seed", "epochs", "all_completed",
        "peak_w", "budget_w", "avg_power_w", "avg_power_frac",
        "max_epoch_frac", "makespan_s", "mean_tpi_ns"};
    if (with_scenario)
        header.insert(header.begin() + 3, "scenario");
    if (with_trace) {
        header.push_back("trace_dropped");
        header.push_back("trace_peak_pending");
    }
    csv.header(header);
    for (const SweepRun &r : runs) {
        const ExperimentResult &res = r.result;
        std::vector<std::string> row{
            std::to_string(r.point.runIndex), r.point.config,
            r.point.workload, r.point.policy,
            fmt(r.point.budgetFraction),
            std::to_string(r.point.replicate),
            fmtSeed(r.point.seed),
            std::to_string(res.epochs.size()),
            res.allCompleted() ? "1" : "0", fmt(res.peakPower),
            fmt(res.budget), fmt(res.averagePower()),
            fmt(res.averagePowerFraction()),
            fmt(res.maxEpochPowerFraction()),
            fmt(res.makespan()), fmt(meanTpi(res) * 1e9)};
        if (with_scenario)
            row.insert(row.begin() + 3, r.point.scenario);
        if (with_trace) {
            row.push_back(std::to_string(res.trace.dropped));
            row.push_back(std::to_string(res.trace.peakPending));
        }
        csv.row(row);
    }
}

void
SweepResult::writeJson(std::FILE *out) const
{
    const bool with_scenario = grid.hasScenarioAxis();
    const bool with_trace = grid.hasTraceScenario();
    std::fprintf(out, "[\n");
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const SweepRun &r = runs[i];
        const ExperimentResult &res = r.result;
        // Scenario/trace fields mirror the CSV: present only when the
        // grid declares the axis, keeping constant-grid JSON unchanged.
        std::string scenario_field;
        if (with_scenario)
            scenario_field = "\"scenario\": \"" +
                jsonEscape(r.point.scenario) + "\", ";
        std::string trace_fields;
        if (with_trace) {
            char buf[96];
            checkedSnprintf(buf, sizeof(buf),
                            ", \"trace_dropped\": %zu, "
                            "\"trace_peak_pending\": %zu",
                            res.trace.dropped, res.trace.peakPending);
            trace_fields = buf;
        }
        std::fprintf(
            out,
            "  {\"run\": %zu, \"config\": \"%s\", "
            "\"workload\": \"%s\", %s\"policy\": \"%s\", "
            "\"budget\": %s, \"replicate\": %d, \"seed\": \"%s\", "
            "\"epochs\": %zu, \"all_completed\": %s, "
            "\"saturated_epochs\": %d, "
            "\"peak_w\": %s, \"budget_w\": %s, \"avg_power_w\": %s, "
            "\"avg_power_frac\": %s, \"max_epoch_frac\": %s, "
            "\"makespan_s\": %s, \"mean_tpi_ns\": %s%s}%s\n",
            r.point.runIndex, jsonEscape(r.point.config).c_str(),
            jsonEscape(r.point.workload).c_str(),
            scenario_field.c_str(),
            jsonEscape(r.point.policy).c_str(),
            fmt(r.point.budgetFraction).c_str(), r.point.replicate,
            fmtSeed(r.point.seed).c_str(), res.epochs.size(),
            res.allCompleted() ? "true" : "false",
            res.saturatedEpochs(),
            fmt(res.peakPower).c_str(), fmt(res.budget).c_str(),
            fmt(res.averagePower()).c_str(),
            fmt(res.averagePowerFraction()).c_str(),
            fmt(res.maxEpochPowerFraction()).c_str(),
            fmt(res.makespan()).c_str(),
            fmt(meanTpi(res) * 1e9).c_str(), trace_fields.c_str(),
            i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
}

std::string
SweepResult::csvString() const
{
    // std::tmpfile rather than open_memstream: the latter is
    // POSIX-only and this is library (not tool) code.
    std::FILE *tmp = std::tmpfile();
    if (!tmp)
        panic("SweepResult::csvString: tmpfile failed");
    writeCsv(tmp);
    std::string out;
    out.resize(static_cast<std::size_t>(std::ftell(tmp)));
    std::rewind(tmp);
    const std::size_t got = std::fread(&out[0], 1, out.size(), tmp);
    std::fclose(tmp);
    if (got != out.size())
        panic("SweepResult::csvString: short read");
    return out;
}

SweepRunner::SweepRunner(SweepGrid grid, int threads)
    : _grid(std::move(grid)),
      _threads(threads > 0
                   ? threads
                   : static_cast<int>(ThreadPool::hardwareWorkers()))
{
}

SweepRun
SweepRunner::runOne(const SweepGrid &grid, std::size_t run_index)
{
    SweepRun run;
    run.point = grid.point(run_index);

    SimConfig sim = grid.configs[run.point.configIdx].sim;
    sim.seed = run.point.seed;

    ExperimentConfig ecfg;
    ecfg.budgetFraction = run.point.budgetFraction;
    ecfg.targetInstructions = grid.targetInstructions;
    ecfg.maxEpochs = grid.maxEpochs;
    ecfg.shards = grid.shards;
    ecfg.shardThreads = grid.shardThreads;
    if (grid.hasScenarioAxis())
        ecfg.scenario = grid.scenarios[run.point.scenarioIdx];

    run.result =
        runWorkload(run.point.workload, run.point.policy, ecfg, sim);
    return run;
}

SweepResult
SweepRunner::run()
{
    _grid.validate();

    // Pre-measure every config's peak serially, in grid order: the
    // peak cache is shared, so populating it before the fan-out makes
    // each run's budget independent of worker interleaving. The
    // engine selection matches the runs' (the cache key is
    // engine-tagged), so the fan-out hits the cache, never measures.
    for (const SweepConfig &c : _grid.configs)
        measuredPeakPower(
            c.sim, EngineConfig{_grid.shards, _grid.shardThreads});

    // fastcap-lint: wall-clock(operator-facing wallSeconds only)
    const double t0 = wallSeconds();
    const std::size_t n = _grid.runCount();

    SweepResult result;
    result.grid = _grid;
    result.threads = _threads;
    result.runs.resize(n);

    {
        ThreadPool pool(static_cast<std::size_t>(_threads));
        for (std::size_t i = 0; i < n; ++i)
            pool.submit([this, i, &result] {
                result.runs[i] = runOne(_grid, i);
            });
        pool.wait();
    }

    // wallSeconds is console reporting only, never serialized into
    // the CSV/JSON results (the 1-vs-N-thread cmp gate depends on
    // that). fastcap-lint: wall-clock(operator-facing wallSeconds only)
    result.wallSeconds = wallSeconds() - t0;
    return result;
}

} // namespace fastcap
