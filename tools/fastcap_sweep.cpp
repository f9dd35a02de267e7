/**
 * @file
 * fastcap_sweep — run a grid of power-capping experiments in
 * parallel.
 *
 *   fastcap_sweep --workloads MIX1,MIX3 --policies FastCap,Eql-Pwr \
 *                 --budgets 0.5,0.6,0.7 --cores 16 --threads 8 \
 *                 --csv sweep.csv
 *
 * The grid is the cross-product of every list-valued flag (plus
 * --replicates as a seed dimension). Results are deterministic for a
 * given grid and --seed: each run's simulation seed is derived from
 * (seed, run index) with SplitMix64, so the emitted CSV/JSON is
 * byte-identical regardless of --threads.
 *
 * A grid can also be loaded from a small spec file (--spec) holding
 * `key = value` lines with the same keys as the flags, e.g.:
 *
 *   workloads = ILP1,MEM2
 *   policies  = FastCap,Uncapped
 *   budgets   = 0.6
 *   cores     = 16,32
 *
 * Explicit flags override spec-file values; a key that names no flag
 * is an error.
 *
 * Time-varying scenarios (budget schedules and job churn) form an
 * optional grid axis:
 *
 *   --scenario "name=drop|budget=step@0:0.9;step@0.05:0.5"
 *   --scenario-file scenarios.txt   # `name = spec` lines
 *
 * With a scenario axis the CSV/JSON rows gain a `scenario` column;
 * without one the output is byte-identical to scenario-less builds.
 */

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/sweep.hpp"
#include "policies/registry.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/registry.hpp"
#include "util/args.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "workload/spec_table.hpp"

using namespace fastcap;

namespace {

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ',')) {
        // Trim surrounding spaces so "a, b" parses as {"a", "b"}.
        const auto first = item.find_first_not_of(" \t");
        const auto last = item.find_last_not_of(" \t");
        if (first != std::string::npos)
            out.push_back(item.substr(first, last - first + 1));
    }
    return out;
}

std::vector<double>
splitDoubles(const std::string &csv, const char *what)
{
    std::vector<double> out;
    for (const std::string &s : splitList(csv)) {
        char *end = nullptr;
        const double v = std::strtod(s.c_str(), &end);
        if (end == s.c_str() || *end != '\0')
            fatal("bad %s value '%s'", what, s.c_str());
        out.push_back(v);
    }
    return out;
}

std::vector<int>
splitInts(const std::string &csv, const char *what)
{
    std::vector<int> out;
    for (const std::string &s : splitList(csv)) {
        char *end = nullptr;
        errno = 0;
        const long v = std::strtol(s.c_str(), &end, 10);
        // Strict: "16.9", "1e2" or 4294967312 must not silently
        // truncate or wrap.
        if (end == s.c_str() || *end != '\0' || errno == ERANGE ||
            v < INT_MIN || v > INT_MAX)
            fatal("bad %s value '%s' (expected an integer)", what,
                  s.c_str());
        out.push_back(static_cast<int>(v));
    }
    return out;
}

/** Single numeric value; empty input is a clean user error. */
double
oneDouble(const std::string &s, const char *what)
{
    const std::vector<double> v = splitDoubles(s, what);
    if (v.size() != 1)
        fatal("expected one %s value (got '%s')", what, s.c_str());
    return v.front();
}

/** Single integer value; empty input is a clean user error. */
int
oneInt(const std::string &s, const char *what)
{
    const std::vector<int> v = splitInts(s, what);
    if (v.size() != 1)
        fatal("expected one %s value (got '%s')", what, s.c_str());
    return v.front();
}

/** "true"/"false"/"1"/"0" for spec-file booleans. */
bool
parseBool(const std::string &s, const char *what)
{
    if (s == "true" || s == "1")
        return true;
    if (s == "false" || s == "0")
        return false;
    fatal("bad %s value '%s' (expected true/false)", what, s.c_str());
}

/** Parse `key = value` lines; '#' starts a comment. */
std::map<std::string, std::string>
readSpecFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open spec file '%s'",
              path.c_str());
    std::map<std::string, std::string> kv;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        const auto eq = line.find('=');
        if (eq == std::string::npos) {
            if (line.find_first_not_of(" \t\r") != std::string::npos)
                fatal("%s:%d: expected 'key = value'",
                      path.c_str(), lineno);
            continue;
        }
        const std::string key = trimmed(line.substr(0, eq));
        const std::string value = trimmed(line.substr(eq + 1));
        if (key.empty())
            fatal("%s:%d: empty key", path.c_str(),
                  lineno);
        kv[key] = value;
    }
    return kv;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("fastcap_sweep",
                   "parallel grid sweep over capping experiments");
    args.addString("workloads", "",
                   "comma-separated Table III workloads "
                   "(default: all 16)");
    args.addString("classes", "",
                   "workload classes (ILP,MID,MEM,MIX); expands to "
                   "their workloads");
    args.addString("policies", "FastCap", "comma-separated policies");
    args.addString("budgets", "0.6",
                   "comma-separated budget fractions of peak");
    args.addString("cores", "16", "comma-separated core counts");
    args.addString("replicates", "1",
                   "runs per grid point (fresh derived seed each)");
    args.addString("instructions", "30e6",
                   "instructions per application");
    args.addString("max-epochs", "2000", "epoch cap per run");
    args.addString("seed", "0",
                   "base seed for per-run seed derivation "
                   "(0 = default)");
    args.addString("spec", "",
                   "grid spec file with 'key = value' lines "
                   "(flags override)");
    args.addString("scenario", "",
                   "inline time-varying scenario, e.g. "
                   "'name=drop|budget=step@0:0.9;step@0.05:0.5'");
    args.addString("scenario-file", "",
                   "scenario axis file with 'name = spec' lines");
    args.addFlag("paired-seeds",
                 "runs differing only in policy/budget share a seed "
                 "(for normalized comparisons)");
    args.addString("shards", "0",
                   "simulation-engine shards per run (0 = auto: "
                   "monolithic <= 64 cores, sharded above; output is "
                   "byte-identical across all values >= 1)");
    args.addString("shard-threads", "1",
                   "sharded-engine workers per run (0 = hardware; "
                   "default 1 to avoid nesting inside --threads)");
    args.addInt("threads", 0, "worker threads (0 = hardware)");
    args.addString("csv", "", "write run CSV to this file "
                              "(default: stdout)");
    args.addString("json", "", "also write run JSON to this file");
    args.addFlag("telemetry",
                 "enable the metrics registry (observe-only: CSV/JSON "
                 "output is byte-identical either way)");
    args.addString("log-level", "",
                   "log spec LEVEL[,module=LEVEL]... with levels "
                   "silent|warn|inform|debug (default inform, so the "
                   "run summary stays visible)");
    if (!args.parse(argc, argv))
        return 1;

    try {
        // The sweep's one-line run summary has always been printed
        // unconditionally; defaulting to inform keeps it visible now
        // that it routes through the logger.
        if (args.getString("log-level").empty())
            Logger::global().level(LogLevel::Inform);
        else
            Logger::global().configure(args.getString("log-level"));
        telemetry::setEnabled(args.getFlag("telemetry"));
        std::map<std::string, std::string> spec;
        if (!args.getString("spec").empty())
            spec = readSpecFile(args.getString("spec"));
        for (const auto &kv : spec) {
            static const char *known[] = {
                "workloads", "classes",      "policies",
                "budgets",   "cores",        "replicates",
                "instructions", "max-epochs", "seed",
                "paired-seeds", "scenario",   "scenario-file",
                "shards", "shard-threads"};
            bool ok = false;
            for (const char *k : known)
                ok = ok || kv.first == k;
            if (!ok)
                fatal("unknown spec key '%s'",
                      kv.first.c_str());
        }
        // Flag wins over spec file; spec wins over the default.
        auto value = [&](const char *name) -> std::string {
            if (!args.provided(name) && spec.count(name))
                return spec.at(name);
            return args.getString(name);
        };

        SweepGrid grid;
        grid.configs =
            SweepGrid::configsForCores(splitInts(value("cores"),
                                                 "cores"));
        // Merge classes and explicit workloads, keeping the first
        // occurrence of each name (a workload may appear in both).
        auto addWorkload = [&grid](const std::string &wl) {
            for (const std::string &have : grid.workloads)
                if (have == wl)
                    return;
            grid.workloads.push_back(wl);
        };
        for (const std::string &cls :
             splitList(value("classes")))
            for (const std::string &wl :
                 workloads::workloadsOfClass(cls))
                addWorkload(wl);
        for (const std::string &wl : splitList(value("workloads")))
            addWorkload(wl);
        if (grid.workloads.empty())
            grid.workloads = workloads::workloadNames();
        grid.policies = splitList(value("policies"));
        grid.budgetFractions = splitDoubles(value("budgets"),
                                            "budget");
        grid.replicates = oneInt(value("replicates"), "replicates");
        grid.targetInstructions =
            oneDouble(value("instructions"), "instructions");
        grid.maxEpochs = oneInt(value("max-epochs"), "max-epochs");
        // Full 64-bit seeds, decimal or 0x-hex. Reject negatives and
        // overflow rather than letting strtoull wrap or saturate them
        // silently.
        const std::string seed_str = value("seed");
        char *end = nullptr;
        errno = 0;
        const std::uint64_t seed =
            std::strtoull(seed_str.c_str(), &end, 0);
        if (end == seed_str.c_str() || *end != '\0' || errno == ERANGE ||
            seed_str.find('-') != std::string::npos)
            fatal("bad seed '%s'", seed_str.c_str());
        if (seed != 0)
            grid.baseSeed = seed;
        // The flag form is boolean-valued, the spec form true/false.
        grid.pairSeedsAcrossPolicies =
            args.getFlag("paired-seeds") ||
            (spec.count("paired-seeds") &&
             parseBool(spec.at("paired-seeds"), "paired-seeds"));
        grid.shards = oneInt(value("shards"), "shards");
        grid.shardThreads =
            oneInt(value("shard-threads"), "shard-threads");

        // Scenario axis: a file of named scenarios, or one inline
        // spec. Omitting both keeps the implicit constant scenario
        // (and the historical CSV format). The two keys name one
        // axis, so flags override spec-file values across *both*: an
        // explicit --scenario replaces a spec 'scenario-file' line
        // and vice versa; they conflict only at the same level.
        std::string scenario_file;
        std::string scenario_inline;
        if (args.provided("scenario") ||
            args.provided("scenario-file")) {
            scenario_inline = args.getString("scenario");
            scenario_file = args.getString("scenario-file");
        } else {
            if (spec.count("scenario"))
                scenario_inline = spec.at("scenario");
            if (spec.count("scenario-file"))
                scenario_file = spec.at("scenario-file");
        }
        if (!scenario_file.empty() && !scenario_inline.empty())
            fatal("scenario and scenario-file are exclusive");
        if (!scenario_file.empty())
            grid.scenarios = Scenario::loadFile(scenario_file);
        else if (!scenario_inline.empty())
            grid.scenarios = {Scenario::parse(scenario_inline)};

        SweepRunner runner(grid,
                           static_cast<int>(args.getInt("threads")));
        const SweepResult result = runner.run();

        logkv(LogLevel::Inform, "sweep", "done",
              {{"runs",
                static_cast<long long>(result.runs.size())},
               {"threads", result.threads},
               {"wall_s", result.wallSeconds},
               {"runs_per_s",
                result.wallSeconds > 0.0
                    ? static_cast<double>(result.runs.size()) /
                          result.wallSeconds
                    : 0.0}});

        if (args.getString("csv").empty()) {
            result.writeCsv(stdout);
        } else {
            std::FILE *out =
                std::fopen(args.getString("csv").c_str(), "w");
            if (!out)
                fatal("cannot write '%s'",
                      args.getString("csv").c_str());
            result.writeCsv(out);
            std::fclose(out);
        }
        if (!args.getString("json").empty()) {
            std::FILE *out =
                std::fopen(args.getString("json").c_str(), "w");
            if (!out)
                fatal("cannot write '%s'",
                      args.getString("json").c_str());
            result.writeJson(out);
            std::fclose(out);
        }
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fastcap_sweep: %s\n", e.what());
        return 1;
    }
}
