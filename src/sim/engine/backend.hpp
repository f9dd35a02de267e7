/**
 * @file
 * Simulation-engine abstraction: the operations the experiment
 * harness needs from a simulated many-core server, decoupled from how
 * the discrete-event simulation is executed.
 *
 * Two engines implement it:
 *
 *   - the *monolithic* engine (ManyCoreSystem behind an adapter): one
 *     global event queue, shared memory controllers, full cross-core
 *     queueing contention. The faithful substrate for the paper-scale
 *     configurations (<= 64 cores).
 *   - the *sharded* engine (ShardedSystem): every core a lane with
 *     its own event queue and memory lane, advanced independently
 *     between window boundaries by K shard tasks, built for routine
 *     256/1024-core capping runs. See sharded_system.hpp for its
 *     modeling contract.
 *
 * The harness composes either engine into epochs; which one runs is
 * an ExperimentConfig knob (`shards`), not a code path choice.
 */

#ifndef FASTCAP_SIM_ENGINE_BACKEND_HPP
#define FASTCAP_SIM_ENGINE_BACKEND_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/app_profile.hpp"
#include "sim/config.hpp"
#include "sim/system.hpp"
#include "util/units.hpp"

namespace fastcap {

/**
 * Engine selection and execution knobs, orthogonal to the simulated
 * system's SimConfig (two engines given the same SimConfig model the
 * same machine; they differ in how the DES advances it).
 */
struct EngineConfig
{
    /**
     * Shard count. 0 = auto: the monolithic engine up to
     * `kAutoMonolithicLimit` cores (bit-identical to every pre-engine
     * release), one shard per 64 cores above it. Any value >= 1
     * forces the sharded engine with min(shards, numCores) shards.
     * The sharded engine's output is byte-identical for every shard
     * count — a shard is just the lane range one pool task runs, so
     * the knob sets task granularity, not results.
     */
    int shards = 0;

    /**
     * Worker threads the sharded engine fans its shards over.
     * 1 = serial (default; the right choice inside an already
     * parallel sweep), 0 = hardware concurrency. Output is
     * byte-identical for every thread count. Ignored by the
     * monolithic engine.
     */
    int threads = 1;

    /** Core count at or below which `shards = 0` stays monolithic. */
    static constexpr int kAutoMonolithicLimit = 64;
};

/**
 * A simulated many-core server as seen by the harness.
 *
 * The contract mirrors ManyCoreSystem's historical surface: windows
 * of bounded discrete-event simulation returning measured counters
 * and energy, DVFS actuation between windows, and mid-run application
 * rebinding for dynamic-workload scenarios.
 */
class SimBackend
{
  public:
    virtual ~SimBackend() = default;

    /** Engine identifier for diagnostics ("monolithic"/"sharded"). */
    virtual const char *engineName() const = 0;

    virtual const SimConfig &config() const = 0;
    virtual int numCores() const = 0;
    /** Logical memory controllers (WindowStats::memory entries). */
    virtual int numControllers() const = 0;
    virtual Seconds now() const = 0;

    /** The application bound to core i. */
    virtual const AppProfile &appOf(int core) const = 0;
    /** Rebind core i mid-run (job arrival/departure). */
    virtual void swapApp(int core, AppProfile app) = 0;

    // --- DVFS actuation ---------------------------------------------
    virtual void coreFreqIndex(int core, std::size_t idx) = 0;
    virtual std::size_t coreFreqIndex(int core) const = 0;
    virtual void memFreqIndex(std::size_t idx) = 0;
    virtual std::size_t memFreqIndex() const = 0;
    virtual Hertz memFrequency() const = 0;
    virtual void maxFrequencies() = 0;

    // --- simulation --------------------------------------------------
    /** Advance the DES by `duration` seconds and measure. */
    virtual WindowStats runWindow(Seconds duration) = 0;
    virtual double instructionsRetired(int core) const = 0;
    virtual void creditInstructions(int core, double instr) = 0;

    // --- power / topology -------------------------------------------
    virtual Watts nameplatePeakPower() const = 0;
    /** Access probabilities of core i over logical controllers. */
    virtual const std::vector<double> &
    accessProbabilities(int core) const = 0;
    virtual std::uint64_t memoryInFlight() const = 0;
    virtual std::uint64_t eventsProcessed() const = 0;
};

/**
 * Build the engine EngineConfig selects for this system. The
 * monolithic engine wraps a ManyCoreSystem; the sharded engine is a
 * ShardedSystem. See EngineConfig::shards for the auto rule.
 */
std::unique_ptr<SimBackend>
makeSimBackend(SimConfig cfg, std::vector<AppProfile> apps,
               const EngineConfig &engine = EngineConfig{});

} // namespace fastcap

#endif // FASTCAP_SIM_ENGINE_BACKEND_HPP
