/**
 * @file
 * Shared pieces of the end-to-end benchmark program: host timing,
 * sample statistics, result digests, the timing policy decorator,
 * registry readers and the report every workload fills in.
 *
 * The benchmark sits outside the program. It drives the public layer
 * APIs and times each call from here; nothing in src/ is changed or
 * instrumented for it.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/policy.hpp"
#include "harness/experiment.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since `t0`. */
double since(Clock::time_point t0);

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of the timed measurement loop, host seconds. */
    double seconds = 10.0;
    /** true: per-layer (traced) run; false: end-to-end run. */
    bool trace = false;
    /** Tiny sizes and a single repetition: the benchmark's own test. */
    bool smoke = false;
    /** Source identity of the measured program (commit or tree hash). */
    std::string commit = "unknown";
};

/**
 * Whether to start another timed repetition: always until `min_reps`
 * have run, then only while one more mean-length repetition still
 * fits in `seconds` of the loop that began at `start`.
 */
bool anotherRep(Clock::time_point start, int reps, double seconds,
                int min_reps);

// --- sample statistics --------------------------------------------

double median(std::vector<double> v);
/** Nearest-rank percentile, p in (0, 100]. */
double percentile(std::vector<double> v, double p);
double sum(const std::vector<double> &v);
std::uint64_t sum(const std::vector<std::uint64_t> &v);

/**
 * The highest percentile, capped at p95, that still has >= 10 samples
 * beyond it (with 10 or fewer samples: the maximum, pct 100).
 */
struct Tail
{
    double pct = 100.0;
    double value = 0.0;
    std::size_t beyond = 0;
};
Tail tail(const std::vector<double> &v);

/**
 * Host speed probe (probe.cpp): times a fixed piece of the benchmark's
 * own work on `threads` threads at once and returns the slowest
 * thread's fastest unit, seconds. It changes with the host, never with
 * the program.
 */
double probeHost(int threads);

/**
 * probeHost() on the reference host (4-vCPU Xeon VM at 2.1 GHz,
 * GCC 12, Release) at its fastest, seconds.
 */
constexpr double kReferenceProbeS = 0.45e-3;

/**
 * How fast the host runs now against the reference host, for the
 * workload: (kReferenceProbeS / probeHost()) ^ exponent. A host time
 * multiplied by it reads as if the reference host had run it. The
 * exponent is how much more the workload's time moves than the
 * probe's, in log terms, when the host changes speed (1: as much).
 * The host changes speed within seconds, so now() probes again
 * whenever its last probe is more than 20 ms old: every setup and
 * every step longer than that is scaled by a probe taken just before.
 */
class HostSpeed
{
  public:
    HostSpeed(int threads, double exponent)
        : _threads(threads), _exponent(exponent)
    {
    }
    double now();

  private:
    int _threads;
    double _exponent;
    double _speed = 0.0;
    Clock::time_point _at;
};

/** What every timed repetition of every workload records. */
struct RepTimes
{
    std::vector<double> setupS; //!< every setup of the repetition
    double wallS = 0.0;         //!< last setup + the timed steps
    std::vector<double> stepMs; //!< each timed step
    /** HostSpeed::now() before each setup and each step (timed runs). */
    std::vector<double> setupSpeed, stepSpeed;
};

/** Pointers to the RepTimes of each repetition, in order. */
template <class Rep>
std::vector<const RepTimes *>
timesOf(const std::vector<Rep> &reps)
{
    std::vector<const RepTimes *> out;
    for (const Rep &r : reps)
        out.push_back(&r);
    return out;
}

// --- result digests and output checks -----------------------------

/** FNV-1a over the exact bits of every value added. */
class Digest
{
  public:
    void add(std::uint64_t v);
    void add(double v);
    void add(const fastcap::EpochRecord &rec);
    void add(const fastcap::ClusterEpochRecord &rec);
    void add(const fastcap::PolicyDecision &dec);
    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ULL;
};

/** Every power, budget and rate of the record is finite. */
bool finiteRecord(const fastcap::EpochRecord &rec);
bool finiteRecord(const fastcap::ClusterEpochRecord &rec);

// --- timing policy decorator --------------------------------------

/**
 * Forwards to a wrapped policy and records, per decide() call, the
 * host time it took and the power the decision predicted. Used only
 * in traced runs; end-to-end runs hand the bare policy to the harness.
 */
class TimedPolicy : public fastcap::CappingPolicy
{
  public:
    explicit TimedPolicy(std::unique_ptr<fastcap::CappingPolicy> inner);

    std::string name() const override { return _inner->name(); }
    fastcap::PolicyDecision
    decide(const fastcap::PolicyInputs &inputs) override;
    bool usesMemoryDvfs() const override
    {
        return _inner->usesMemoryDvfs();
    }
    void reset() override { _inner->reset(); }

    std::vector<double> decideUs;
    std::vector<double> predictedPower;

  private:
    std::unique_ptr<fastcap::CappingPolicy> _inner;
};

/** Peak resident set size of this process, MiB. */
double peakRssMb();

// --- report -------------------------------------------------------

/**
 * What one run prints. End-to-end metrics common to every workload
 * go to the final JSON line in an end-to-end run; workload-specific
 * end-to-end metrics are printed in the table only. In a traced run
 * the JSON carries the full per-layer list; a layer a workload does
 * not exercise (or cannot observe) reports 0 marked "n/a".
 */
class Report
{
  public:
    explicit Report(const Options &opts);

    /** End-to-end metric. */
    void metric(const std::string &name, double value,
                const std::string &unit, std::size_t samples,
                const std::string &note = "");
    /** Per-layer metric; the name must be in the per-layer list. */
    void layer(const std::string &name, double value,
               std::size_t samples, const std::string &note = "");

    /**
     * The timing metrics every workload reports: setup_s, wall_s,
     * epoch_ms_p50, epoch_ms_tail, epochs_per_s, peak_rss_mb and,
     * in the table, host_speed. The first repetition is a warm-up.
     * Every other setup and step time is multiplied by the HostSpeed
     * taken just before it. Every repetition runs the same
     * deterministic steps, so each step's cost is its median scaled
     * time over the repetitions (setup_s: the median scaled setup). epoch_ms_p50 is the median of those, epochs_per_s
     * the steps over their sum, and wall_s setup_s plus that sum.
     * epoch_ms_tail pools every scaled step of every repetition, since
     * host delays are part of what it measures. Returns the
     * epochs_per_s reported.
     */
    double timings(const std::vector<const RepTimes *> &reps,
                   const std::string &setupNote,
                   const std::string &stepNote);

    /** Count steps (epochs or control steps) run. */
    void attempted(std::size_t steps) { _attempted += steps; }
    /** A failed output check marks `steps` steps failed. */
    void check(bool ok, std::size_t steps, const std::string &what);
    /** Layer with the largest share of step time (traced runs). */
    void dominant(const std::string &text) { _dominant = text; }

    /** Print the table and the JSON result line; returns exit code. */
    int print() const;

  private:
    struct Row
    {
        std::string name;
        double value = 0.0;
        std::string unit;
        std::size_t samples = 0;
        std::string note;
        bool set = false;
    };

    Row *find(std::vector<Row> &rows, const std::string &name);

    Options _opts;
    std::vector<Row> _headline; //!< JSON end-to-end metrics, fixed order
    std::vector<Row> _extra;    //!< workload-specific end-to-end metrics
    std::vector<Row> _layers;   //!< per-layer metrics, fixed order
    std::vector<std::string> _failures;
    std::size_t _attempted = 0;
    std::size_t _failed = 0;
    std::string _dominant;
};

// --- per-layer metrics shared by the workloads (traced runs) -------

/** core.solver.*: per-decide averages of the totals under /solver. */
void reportSolverLayers(Report &report);
/** util.pool.*: /pool/tasks per traced repetition and long waits. */
void reportPoolLayers(Report &report, std::size_t tracedReps);
/**
 * telemetry.overhead_frac from repetitions run in adjacent (untraced,
 * traced) pairs: the median over pairs of traced / untraced wall
 * time, - 1. Pairing keeps slow drifts of host speed out of it.
 */
void reportOverhead(Report &report,
                    const std::vector<const RepTimes *> &untraced,
                    const std::vector<const RepTimes *> &traced);

/** Counter or gauge value at `path`; 0 when it was never written. */
double registryValue(const std::string &path);
/** Values of every counter/gauge under `prefix`, in path order. */
std::vector<double> registryValues(const std::string &prefix);

// --- workloads ----------------------------------------------------

/** paper64 and scale1024: one machine under ExperimentRunner. */
void runMachine(const Options &opts, Report &report);
/** rack: Cluster of 8 x 64-core machines. */
void runRack(const Options &opts, Report &report);
/** governor: fit + decide on synthetic 1024-core counters. */
void runGovernor(const Options &opts, Report &report);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
