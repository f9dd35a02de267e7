/**
 * @file
 * fastcap_cluster — run a rack-scale hierarchical capping experiment
 * from the command line.
 *
 *   fastcap_cluster --machines 8 --cores 64 --budget 0.5 \
 *       --trace "gen:flash,rate=200,flash-start=0.02" --max-epochs 40
 *
 * A Cluster instantiates M identical machines (each a full FastCap
 * capping stack), re-divides the rack budget across them every epoch
 * from previous-epoch demand, and dispatches a cluster-wide job
 * trace onto the least-loaded machine. `--fail` kills machines
 * mid-run; `--csv` emits the per-epoch rack time series, which is
 * byte-identical for every `--machine-threads` value (the CI cmp
 * gate runs 1 vs N).
 */

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "scenario/budget_schedule.hpp"
#include "util/args.hpp"
#include "util/logging.hpp"

using namespace fastcap;

namespace {

/**
 * Parse a failure schedule: `;`-separated `MACHINE@FAIL[:RESTORE]`
 * entries, e.g. "2@5:12;7@9" (machine 2 dies at epoch 5 and returns
 * at 12; machine 7 dies at 9 for good).
 */
std::vector<MachineFailure>
parseFailures(const std::string &spec)
{
    std::vector<MachineFailure> out;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t end = spec.find(';', pos);
        if (end == std::string::npos)
            end = spec.size();
        const std::string item = spec.substr(pos, end - pos);
        pos = end + 1;
        if (item.empty())
            continue;
        MachineFailure f;
        char *rest = nullptr;
        f.machine =
            static_cast<int>(std::strtol(item.c_str(), &rest, 10));
        if (rest == item.c_str() || *rest != '@')
            fatal("--fail: expected MACHINE@FAIL[:RESTORE], got '%s'",
                  item.c_str());
        const char *p = rest + 1;
        f.failEpoch = static_cast<int>(std::strtol(p, &rest, 10));
        if (rest == p)
            fatal("--fail: missing failure epoch in '%s'",
                  item.c_str());
        if (*rest == ':') {
            p = rest + 1;
            f.restoreEpoch =
                static_cast<int>(std::strtol(p, &rest, 10));
            if (rest == p)
                fatal("--fail: missing restore epoch in '%s'",
                      item.c_str());
        }
        if (*rest != '\0')
            fatal("--fail: trailing garbage in '%s'", item.c_str());
        out.push_back(f);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("fastcap_cluster",
                   "rack-scale hierarchical power capping");
    args.addInt("machines", 4, "machines in the rack");
    args.addInt("cores", 16, "cores per machine (multiple of 4)");
    args.addString("workload", "idle",
                   "initial per-core mix on every machine");
    args.addString("policy", "FastCap",
                   "per-machine capping policy (see fastcap_sim)");
    args.addDouble("budget", 0.6,
                   "rack budget as fraction of installed peak");
    args.addString("rack-schedule", "",
                   "time-varying rack budget, BudgetSchedule syntax "
                   "(e.g. 'step@0:0.8;step@0.05:0.4')");
    args.addString("trace", "",
                   "cluster-wide job trace: file, '-' (stdin) or "
                   "gen:KIND,key=value,...");
    args.addInt("max-epochs", 20, "rack epochs to simulate");
    args.addInt("machine-threads", 1,
                "threads machine epochs fan out over (0 = hardware); "
                "output is byte-identical for every value");
    args.addInt("shards", 0,
                "per-machine engine shards (0 = auto)");
    args.addInt("shard-threads", 1,
                "per-machine engine threads (1 avoids nesting)");
    args.addDouble("floor", 0.05,
                   "arbiter floor: guaranteed peak share per machine");
    args.addString("fail", "",
                   "failure schedule: MACHINE@FAIL[:RESTORE];...");
    args.addInt("seed", 0, "base seed (0 = default)", LONG_MIN,
                LONG_MAX);
    args.addString("csv", "",
                   "write the per-epoch rack CSV here ('-' = stdout)");
    args.addFlag("telemetry",
                 "enable the metrics registry (observe-only: result "
                 "output is byte-identical either way)");
    args.addString("trace-out", "",
                   "write a Chrome trace_event JSON of the rack run "
                   "here (implies --telemetry)");
    args.addString("introspect", "",
                   "after the run, print metrics under this path, "
                   "e.g. /cluster/arbiter ('/' = everything; implies "
                   "--telemetry)");
    args.addString("log-level", "",
                   "log spec LEVEL[,module=LEVEL]... with levels "
                   "silent|warn|inform|debug");
    if (!args.parse(argc, argv))
        return 1;

    try {
        if (!args.getString("log-level").empty())
            Logger::global().configure(args.getString("log-level"));
        const std::string trace_out = args.getString("trace-out");
        const std::string introspect = args.getString("introspect");
        telemetry::setEnabled(args.getFlag("telemetry") ||
                              !trace_out.empty() ||
                              !introspect.empty());
        telemetry::Tracer tracer;

        ClusterConfig cfg;
        cfg.machines = static_cast<int>(args.getInt("machines"));
        cfg.machine = SimConfig::defaultConfig(
            static_cast<int>(args.getInt("cores")));
        cfg.workload = args.getString("workload");
        cfg.policy = args.getString("policy");
        cfg.rackBudgetFraction = args.getDouble("budget");
        if (!args.getString("rack-schedule").empty())
            cfg.rackSchedule =
                BudgetSchedule::parse(args.getString("rack-schedule"));
        cfg.trace = args.getString("trace");
        cfg.maxEpochs = static_cast<int>(args.getInt("max-epochs"));
        cfg.machineThreads =
            static_cast<int>(args.getInt("machine-threads"));
        cfg.shards = static_cast<int>(args.getInt("shards"));
        cfg.shardThreads =
            static_cast<int>(args.getInt("shard-threads"));
        cfg.floorFraction = args.getDouble("floor");
        cfg.failures = parseFailures(args.getString("fail"));
        if (args.getInt("seed") != 0)
            cfg.seed =
                static_cast<std::uint64_t>(args.getInt("seed"));
        if (!trace_out.empty())
            cfg.tracer = &tracer;

        Cluster cluster(cfg);
        const ClusterResult res = cluster.run();

        const ClusterEpochRecord &last = res.epochs.back();
        std::printf("rack: %d machines x %d cores | budget %.0f%% of "
                    "%.1f W installed\n",
                    cfg.machines, cfg.machine.numCores,
                    100.0 * cfg.rackBudgetFraction, res.installedPeak);
        std::printf("epochs %zu | final: %.1f W of %.1f W usable, "
                    "%d machines alive, %d cores busy\n",
                    res.epochs.size(), last.totalPower,
                    last.usableBudget, last.aliveMachines,
                    last.busyCores);
        std::printf("jobs: %zu dispatched, %zu completed, %zu shed, "
                    "%zu lost to failures\n",
                    res.dispatched, res.completed, res.dropped,
                    res.lost);

        const std::string csv = args.getString("csv");
        if (!csv.empty()) {
            if (csv == "-") {
                std::printf("\n");
                res.writeCsv(stdout);
            } else {
                std::FILE *f = std::fopen(csv.c_str(), "w");
                if (!f)
                    fatal("cannot open '%s' for writing", csv.c_str());
                res.writeCsv(f);
                std::fclose(f);
                inform("wrote %s", csv.c_str());
            }
        }

        if (!trace_out.empty())
            tracer.writeJson(trace_out);
        if (!introspect.empty())
            for (const auto &kv :
                 telemetry::Registry::global().query(
                     introspect == "/" ? "" : introspect))
                std::printf("%s %s\n", kv.first.c_str(),
                            kv.second.c_str());
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fastcap_cluster: %s\n", e.what());
        return 1;
    }
}
