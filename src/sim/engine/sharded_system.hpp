/**
 * @file
 * Sharded simulation engine for routine 256/1024-core capping runs.
 *
 * The monolithic ManyCoreSystem advances every core through one
 * serial event queue, which caps experiment grids at ~64 cores. This
 * engine gives every core a *lane* — the core, its private memory
 * lane and its own EventQueue — and advances the lanes independently
 * between window boundaries; windows are the natural barriers because
 * cores only interact through the per-epoch policy decision the
 * harness applies between windows. A shard is a contiguous range of
 * lanes run one after another by one pool task; the shard count only
 * sets task granularity.
 *
 * Modeling contract (the approximation that buys lane independence;
 * docs/ARCHITECTURE.md "Simulation engine"):
 *
 *   - Each core owns a private *memory lane*: a MemoryController
 *     carrying a share of its logical controller's bus (transfer
 *     time scaled so the merged occupancy never exceeds the window)
 *     and at least one bank. Cross-core memory contention is
 *     represented by that bandwidth share instead of simulated
 *     queueing, so lanes share no mutable state. The first window
 *     uses the fair 1/laneCount share; every window barrier then
 *     re-divides each logical bus across its lanes in proportion to
 *     the lanes' measured demand (reads + writebacks) of the window
 *     just merged, floored at a tenth of the fair share, so skewed
 *     workloads stop over-throttling hot lanes. Weights are computed
 *     from merged per-lane counters on the calling thread and always
 *     sum to 1 per controller — determinism and the occupancy bound
 *     both survive re-division.
 *   - Core i maps to *logical* controller (i mod numControllers).
 *     Window stats aggregate the lanes of a logical controller (in
 *     ascending core order) back into numControllers
 *     MemWindowStats, so the harness, the online fitter and the
 *     policies see the same shapes as on the monolithic engine.
 *     Skewed interleaving is not representable here (the engine warns
 *     and models the modulo mapping).
 *   - All randomness is per-lane, derived from (seed, core index)
 *     only, and each lane's events live on the lane's own queue.
 *
 * Determinism contract (enforced by tests/engine/): CSV/JSON output
 * of any experiment on this engine is byte-identical for every shard
 * count and every thread count. A lane fires the same event sequence
 * whichever task runs it, per-core stats accumulate in core-index
 * order, and the thread pool only runs shard jobs, never the merge.
 */

#ifndef FASTCAP_SIM_ENGINE_SHARDED_SYSTEM_HPP
#define FASTCAP_SIM_ENGINE_SHARDED_SYSTEM_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine/backend.hpp"
#include "sim/event_queue.hpp"
#include "sim/memory_controller.hpp"
#include "sim/power.hpp"
#include "util/thread_pool.hpp"

namespace fastcap {

class Core;

/**
 * The sharded many-core engine. See the file comment for the
 * modeling and determinism contracts.
 */
class ShardedSystem : public SimBackend
{
  public:
    /**
     * @param cfg     validated configuration (the modeled machine)
     * @param apps    one application per core
     * @param shards  shard count, clamped to [1, numCores]
     * @param threads shard workers; 0 = hardware concurrency, 1 =
     *                serial. Output is identical either way.
     */
    ShardedSystem(SimConfig cfg, std::vector<AppProfile> apps,
                  int shards, int threads);
    ~ShardedSystem() override;

    ShardedSystem(const ShardedSystem &) = delete;
    ShardedSystem &operator=(const ShardedSystem &) = delete;

    const char *engineName() const override { return "sharded"; }
    const SimConfig &config() const override { return _cfg; }
    int numCores() const override { return _cfg.numCores; }
    int numControllers() const override { return _cfg.numControllers; }
    Seconds now() const override { return _now; }

    const AppProfile &appOf(int core) const override;
    void swapApp(int core, AppProfile app) override;

    void coreFreqIndex(int core, std::size_t idx) override;
    std::size_t coreFreqIndex(int core) const override;
    void memFreqIndex(std::size_t idx) override;
    std::size_t memFreqIndex() const override { return _memFreqIndex; }
    Hertz memFrequency() const override;
    void maxFrequencies() override;

    WindowStats runWindow(Seconds duration) override;
    double instructionsRetired(int core) const override;
    void creditInstructions(int core, double instr) override;

    Watts nameplatePeakPower() const override;
    const std::vector<double> &
    accessProbabilities(int core) const override;
    std::uint64_t memoryInFlight() const override;
    std::uint64_t eventsProcessed() const override;

    // --- engine introspection (tests, benches) ----------------------
    int numShards() const
    {
        return static_cast<int>(_shardBegin.size()) - 1;
    }
    /** Effective worker count shard jobs fan out over. */
    int shardWorkers() const;
    /** Core range [first, first + count) of shard s. */
    std::pair<int, int> shardRange(int s) const;

  private:
    /**
     * One core's private slice of the machine: the event queue that
     * carries all of its events, the core, its memory lane, and the
     * application slot the core's pointer refers to. Lane addresses
     * are stable (the lane vector never resizes after construction).
     */
    struct Lane
    {
        EventQueue queue;
        std::unique_ptr<Core> core;
        std::unique_ptr<MemoryController> controller;
        AppProfile app;
    };

    Lane &lane(int core);
    const Lane &lane(int core) const;
    /** Advance shard s's lanes to t_end, one after another. */
    void runShardWindow(int s, Seconds t_end);
    /**
     * Re-divide every logical bus across its lanes from the demand
     * (reads + writebacks) the merged window measured. Runs on the
     * calling thread at the window barrier; inputs are per-lane
     * counters only, so the new weights are identical for every
     * shard layout and thread count.
     */
    void redivideBandwidth();

    SimConfig _cfg;
    /**
     * Per-logical-controller lane configs handed to cores and
     * controllers (index: core % numControllers): busBurstCycles
     * scaled to that controller's per-lane bandwidth share,
     * banksPerController scaled to the per-lane bank share. Scaling
     * by the controller's own lane count — not the N/K average —
     * keeps every logical bus's aggregated occupancy <= the window
     * even when numCores is not divisible by numControllers. Lanes
     * keep references into this vector (sized once, never resized).
     */
    std::vector<SimConfig> _laneCfgs;
    /**
     * Lane-to-logical bus-occupancy scale per core: 1 / the lane's
     * current bandwidth weight. Starts at the controller's lane count
     * (the fair share) and is retuned by redivideBandwidth() at every
     * window barrier. The merge divides a lane's bus busy time by the
     * scale that was in effect during the window.
     */
    std::vector<double> _laneScale;

    /** Indexed by core id; sized once, so lane addresses are stable. */
    std::vector<Lane> _lanes;
    /** Shard s owns lanes [_shardBegin[s], _shardBegin[s + 1]). */
    std::vector<int> _shardBegin;
    CorePowerModel _corePower;
    std::vector<MemoryPowerModel> _memPower; //!< per logical controller
    std::vector<std::vector<double>> _accessProbs; //!< one-hot rows
    std::size_t _memFreqIndex = 0;
    Seconds _now = 0.0;
    int _threads = 1;
    /** Created only when more than one worker is requested. */
    std::unique_ptr<ThreadPool> _pool;
};

} // namespace fastcap

#endif // FASTCAP_SIM_ENGINE_SHARDED_SYSTEM_HPP
