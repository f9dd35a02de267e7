/**
 * @file
 * fastcap_sim — run one power-capping experiment from the command
 * line.
 *
 *   fastcap_sim --workload MIX3 --policy FastCap --cores 16 \
 *               --budget 0.6 --instructions 5e7 --epoch-csv
 *
 * Prints a run summary; `--epoch-csv` adds per-epoch CSV rows
 * (power, memory level, budget) for plotting; `--compare` also runs
 * the uncapped baseline and reports normalized per-application CPI.
 * `--trace` replays a job trace (a file, '-' for stdin, or a
 * gen:KIND,... generator spec) onto the cores:
 *
 *   fastcap_tracegen --kind poisson --rate 500 | \
 *       fastcap_sim --workload idle --trace - --max-epochs 50
 */

#include <climits>
#include <cstdio>
#include <cstdlib>

#include "harness/experiment.hpp"
#include "harness/metrics.hpp"
#include "policies/registry.hpp"
#include "scenario/scenario.hpp"
#include "util/args.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"
#include "workload/spec_table.hpp"

using namespace fastcap;

int
main(int argc, char **argv)
{
    ArgParser args("fastcap_sim",
                   "FastCap power-capping experiment driver");
    args.addString("workload", "MIX3",
                   "Table III workload (ILP1..MIX4), or 'idle' for "
                   "an empty machine (trace replays)");
    args.addString("policy", "FastCap",
                   "FastCap | CPU-only | Uncapped | Freq-Par | "
                   "Eql-Pwr | Eql-Freq | MaxBIPS");
    args.addInt("cores", 16, "core count (multiple of 4)");
    args.addDouble("budget", 0.6, "power budget as fraction of peak");
    args.addDouble("instructions", 50e6,
                   "instructions per application");
    args.addDouble("epoch-ms", 5.0, "epoch length in milliseconds");
    args.addInt("controllers", 1, "memory controllers");
    args.addDouble("skew", 0.0,
                   "hot-controller access fraction (0 = uniform)");
    args.addFlag("ooo", "idealized out-of-order cores");
    args.addInt("shards", 0,
                "simulation-engine shards (0 = auto: monolithic "
                "<= 64 cores, sharded above)");
    args.addInt("shard-threads", 0,
                "sharded-engine worker threads (0 = hardware)");
    args.addString("scenario", "",
                   "inline time-varying scenario, e.g. "
                   "'name=drop|budget=step@0:0.9;step@0.05:0.5'");
    args.addInt("seed", 0, "simulation seed (0 = default)", LONG_MIN,
                LONG_MAX);
    args.addInt("max-epochs", 1000,
                "hard stop in epochs (bounds trace replays whose "
                "apps never complete)");
    args.addString("trace", "",
                   "replay a job trace: a file path, '-' (stdin), or "
                   "gen:KIND,key=value,... for a synthetic stream");
    args.addFlag("epoch-csv", "print per-epoch CSV rows");
    args.addFlag("compare", "also run the uncapped baseline and "
                            "report normalized CPI");
    args.addFlag("telemetry",
                 "enable the metrics registry (observe-only: result "
                 "output is byte-identical either way)");
    args.addString("trace-out", "",
                   "write a Chrome trace_event JSON of the run here "
                   "(implies --telemetry)");
    args.addString("introspect", "",
                   "after the run, print metrics under this path, "
                   "e.g. /solver or /machine/0/core/0/freq "
                   "('/' = everything; implies --telemetry)");
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

        SimConfig scfg = SimConfig::defaultConfig(
            static_cast<int>(args.getInt("cores")));
        scfg.epochLength = args.getDouble("epoch-ms") * 1e-3;
        if (args.getInt("controllers") > 1) {
            const int k = static_cast<int>(args.getInt("controllers"));
            scfg.numControllers = k;
            scfg.banksPerController =
                std::max(1, scfg.banksPerController / k);
            scfg.busBurstCycles *= k; // one channel share each
        }
        if (args.getDouble("skew") > 0.0) {
            scfg.interleave = InterleaveMode::Skewed;
            scfg.skewHotFraction = args.getDouble("skew");
        }
        if (args.getFlag("ooo"))
            scfg.execMode = ExecMode::OutOfOrder;
        if (args.getInt("seed") != 0)
            scfg.seed = static_cast<std::uint64_t>(args.getInt("seed"));
        scfg.validate();

        ExperimentConfig ecfg;
        ecfg.budgetFraction = args.getDouble("budget");
        ecfg.targetInstructions = args.getDouble("instructions");
        ecfg.maxEpochs = static_cast<int>(args.getInt("max-epochs"));
        ecfg.shards = static_cast<int>(args.getInt("shards"));
        ecfg.shardThreads =
            static_cast<int>(args.getInt("shard-threads"));
        if (!args.getString("scenario").empty())
            ecfg.scenario =
                Scenario::parse(args.getString("scenario"));
        // The flag wins over any trace= field inside --scenario.
        if (!args.getString("trace").empty())
            ecfg.scenario.trace = args.getString("trace");
        if (!trace_out.empty())
            ecfg.tracer = &tracer;

        const std::string workload = args.getString("workload");
        const std::string policy = args.getString("policy");

        const ExperimentResult res =
            runWorkload(workload, policy, ecfg, scfg);

        std::printf("workload %s | policy %s | %d cores%s | budget "
                    "%.0f%% of %.1f W\n",
                    workload.c_str(), policy.c_str(), scfg.numCores,
                    scfg.execMode == ExecMode::OutOfOrder ? " (OoO)"
                                                          : "",
                    100.0 * res.budgetFraction, res.peakPower);
        std::printf("epochs %zu | avg power %.1f W (%.3f of peak) | "
                    "max epoch %.1f W | all apps done: %s\n",
                    res.epochs.size(), res.averagePower(),
                    res.averagePowerFraction(), res.maxEpochPower(),
                    res.allCompleted() ? "yes" : "NO");

        if (res.traceDriven)
            std::printf("trace %s | jobs: %zu arrived, %zu placed, "
                        "%zu completed, %zu shed | peak: %zu pending, "
                        "%zu cores busy\n",
                        ecfg.scenario.trace.c_str(),
                        res.trace.arrivals, res.trace.placed,
                        res.trace.completed, res.trace.dropped,
                        res.trace.peakPending, res.trace.peakRunning);

        if (args.getFlag("epoch-csv")) {
            std::printf("\nepoch,core_w,mem_w,total_w,budget_w,"
                        "mem_level,trace_dropped,trace_pending\n");
            for (const EpochRecord &e : res.epochs)
                std::printf("%d,%.2f,%.2f,%.2f,%.2f,%zu,%zu,%zu\n",
                            e.epoch, e.corePower, e.memPower,
                            e.totalPower, e.budget, e.memFreqIdx,
                            e.traceDropped, e.tracePending);
        }

        if (args.getFlag("compare") && policy != "Uncapped") {
            const ExperimentResult base =
                runWorkload(workload, "Uncapped", ecfg, scfg);
            const PerfComparison cmp = comparePerformance(res, base);
            std::printf("\nnormalized CPI vs uncapped: avg %.3f, "
                        "worst %.3f (worst/avg %.3f)\n",
                        cmp.average, cmp.worst, cmp.unfairness);
            AsciiTable t({"core", "app", "norm CPI"});
            for (std::size_t i = 0; i < res.apps.size(); ++i)
                t.addRow({std::to_string(res.apps[i].core),
                          res.apps[i].app,
                          AsciiTable::num(cmp.perApp[i], 3)});
            t.print();
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
        std::fprintf(stderr, "fastcap_sim: %s\n", e.what());
        return 1;
    }
}
