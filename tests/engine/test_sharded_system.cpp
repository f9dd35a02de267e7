/**
 * @file
 * Tests for the sharded simulation engine: shard partitioning, the
 * SimBackend factory's auto rule, window-stats shape and power
 * conservation against the monolithic engine, lane isolation within
 * a window, and the heart of the contract — bit-identical window
 * stats and event counts for every shard count and thread count.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine_test_util.hpp"
#include "sim/core.hpp"
#include "sim/engine/backend.hpp"
#include "sim/engine/sharded_system.hpp"
#include "sim/system.hpp"
#include "util/logging.hpp"
#include "workload/spec_table.hpp"

namespace fastcap {
namespace {

SimConfig
config(int cores)
{
    SimConfig cfg = SimConfig::defaultConfig(cores);
    cfg.seed = 0xfeedbee5ULL;
    return cfg;
}

TEST(ShardedSystem, PartitionCoversAllCoresContiguously)
{
    const SimConfig cfg = config(16);
    for (int shards : {1, 3, 5, 16, 99}) {
        ShardedSystem sys(cfg, workloads::mix("MIX1", 16), shards, 1);
        EXPECT_LE(sys.numShards(), 16);
        EXPECT_GE(sys.numShards(), 1);
        int next = 0;
        for (int s = 0; s < sys.numShards(); ++s) {
            const auto [first, count] = sys.shardRange(s);
            EXPECT_EQ(first, next) << "shards=" << shards;
            EXPECT_GE(count, 1) << "shards=" << shards;
            next = first + count;
        }
        EXPECT_EQ(next, 16) << "shards=" << shards;
    }
    // Requesting one shard per core yields exactly that.
    ShardedSystem one_each(cfg, workloads::mix("MIX1", 16), 16, 1);
    EXPECT_EQ(one_each.numShards(), 16);
    for (int s = 0; s < 16; ++s)
        EXPECT_EQ(one_each.shardRange(s).second, 1);
}

TEST(ShardedSystem, FactoryAutoRuleSelectsEngineByScale)
{
    auto mono = makeSimBackend(config(16), workloads::mix("MIX1", 16));
    EXPECT_STREQ(mono->engineName(), "monolithic");

    auto mono64 =
        makeSimBackend(config(64), workloads::mix("MIX1", 64));
    EXPECT_STREQ(mono64->engineName(), "monolithic");

    auto sharded =
        makeSimBackend(config(128), workloads::mix("MIX1", 128));
    EXPECT_STREQ(sharded->engineName(), "sharded");
    EXPECT_EQ(static_cast<ShardedSystem *>(sharded.get())
                  ->numShards(), 2);

    EngineConfig force;
    force.shards = 4;
    auto forced =
        makeSimBackend(config(16), workloads::mix("MIX1", 16), force);
    EXPECT_STREQ(forced->engineName(), "sharded");
    EXPECT_EQ(static_cast<ShardedSystem *>(forced.get())
                  ->numShards(), 4);

    EngineConfig bad;
    bad.shards = -1;
    EXPECT_THROW(makeSimBackend(config(16),
                                workloads::mix("MIX1", 16), bad),
                 FatalError);
}

TEST(ShardedSystem, WindowStatsShapeMatchesLogicalTopology)
{
    SimConfig cfg = config(16);
    cfg.numControllers = 4;
    cfg.banksPerController = 8;
    ShardedSystem sys(cfg, workloads::mix("MEM1", 16), 4, 1);
    sys.maxFrequencies();

    const WindowStats w = sys.runWindow(cfg.profileWindow);
    ASSERT_EQ(w.cores.size(), 16u);
    ASSERT_EQ(w.memory.size(), 4u); // logical, not per-lane
    EXPECT_GT(w.totalEnergy, 0.0);
    EXPECT_GT(w.totalPower(), 0.0);
    for (const MemWindowStats &m : w.memory) {
        EXPECT_GT(m.counters.reads, 0u);
        EXPECT_GE(m.busUtilisation, 0.0);
        EXPECT_LE(m.busUtilisation, 1.0 + 1e-9);
        EXPECT_GT(m.totalPower, 0.0);
    }
    for (const CoreWindowStats &c : w.cores)
        EXPECT_GT(c.counters.instructions, 0u);
    EXPECT_GT(sys.eventsProcessed(), 0u);
}

/**
 * Regression: with numCores not divisible by numControllers, lanes
 * must be scaled by their *own* controller's lane count — a uniform
 * N/K share oversubscribes the controllers that serve the extra lane
 * and reported busUtilisation could exceed 1, which the monolithic
 * engine (one serialized bus) can never produce.
 */
TEST(ShardedSystem, NonDivisibleControllerCountKeepsUtilisationSane)
{
    SimConfig cfg = config(8);
    cfg.numControllers = 3;
    cfg.banksPerController = 4;
    // Bus-dominated memory so the lanes run their buses near flat out.
    cfg.busBurstCycles = 40.0;
    ShardedSystem sys(cfg, workloads::mix("MEM1", 8), 2, 1);
    sys.maxFrequencies();
    for (int w = 0; w < 4; ++w) {
        const WindowStats stats = sys.runWindow(cfg.profileWindow);
        ASSERT_EQ(stats.memory.size(), 3u);
        for (const MemWindowStats &m : stats.memory) {
            EXPECT_GE(m.busUtilisation, 0.0);
            EXPECT_LE(m.busUtilisation, 1.0 + 1e-9)
                << "window " << w;
        }
    }
}

TEST(ShardedSystem, NameplatePeakMatchesMonolithicEngine)
{
    const SimConfig cfg = config(32);
    ShardedSystem sharded(cfg, workloads::mix("ILP1", 32), 4, 1);
    ManyCoreSystem mono(cfg, workloads::mix("ILP1", 32));
    EXPECT_DOUBLE_EQ(sharded.nameplatePeakPower(),
                     mono.nameplatePeakPower());
}

/**
 * The determinism contract at the window level: every counter, every
 * power double and the total event count are bit-identical across
 * shard counts (including one lane per shard) and thread counts,
 * through several windows with DVFS changes in between.
 */
TEST(ShardedSystem, WindowStatsBitIdenticalAcrossShardsAndThreads)
{
    const SimConfig cfg = config(32);
    const auto run = [&](int shards, int threads) {
        ShardedSystem sys(cfg, workloads::mix("MIX2", 32), shards,
                          threads);
        sys.maxFrequencies();
        std::string log;
        for (int w = 0; w < 4; ++w) {
            log += enginetest::serialize(
                sys.runWindow(cfg.profileWindow));
            // Actuate a different operating point every window.
            for (int i = 0; i < 32; ++i)
                sys.coreFreqIndex(
                    i, static_cast<std::size_t>((i + w) % 10));
            sys.memFreqIndex(static_cast<std::size_t>(9 - 2 * (w % 4)));
        }
        // Every lane fires the same events whichever shard runs it,
        // so the event count is layout-independent too.
        log += std::to_string(sys.eventsProcessed());
        for (int i = 0; i < 32; ++i)
            enginetest::appendBits(log, sys.instructionsRetired(i));
        return log;
    };

    const std::string reference = run(1, 1);
    for (const auto &[shards, threads] :
         std::vector<std::pair<int, int>>{
             {1, 8}, {4, 1}, {4, 8}, {16, 1}, {16, 8}, {32, 3}}) {
        EXPECT_EQ(reference, run(shards, threads))
            << "shards=" << shards << " threads=" << threads;
    }
}

/** Bit-exact rendering of one core's window counters. */
std::string
counterBits(const CoreCounters &c)
{
    std::string s;
    enginetest::appendUint(s, c.instructions);
    enginetest::appendUint(s, c.misses);
    enginetest::appendUint(s, c.writebacks);
    enginetest::appendUint(s, c.stalls);
    enginetest::appendUint(s, c.returns);
    enginetest::appendBits(s, c.busyTime);
    enginetest::appendBits(s, c.stallTime);
    return s;
}

/**
 * Lanes share no mutable state within a window: slowing one core
 * leaves every other lane's first-window counters bit-identical.
 * Only the first window is compared — from the second on, bandwidth
 * re-division legitimately couples the lanes of one logical
 * controller through their measured demand.
 */
TEST(ShardedSystem, SlowingOneLaneLeavesOtherLanesBitIdentical)
{
    const SimConfig cfg = config(128);
    const auto first_window = [&](bool slow_core5) {
        ShardedSystem sys(cfg, workloads::mix("MIX1", 128), 2, 1);
        sys.maxFrequencies();
        if (slow_core5)
            sys.coreFreqIndex(5, 0);
        return sys.runWindow(cfg.profileWindow);
    };
    const WindowStats base = first_window(false);
    const WindowStats slowed = first_window(true);
    ASSERT_EQ(base.cores.size(), 128u);
    ASSERT_EQ(slowed.cores.size(), 128u);
    EXPECT_NE(counterBits(base.cores[5].counters),
              counterBits(slowed.cores[5].counters))
        << "the slowed core itself must change";
    for (std::size_t i = 0; i < 128; ++i) {
        if (i == 5)
            continue;
        EXPECT_EQ(counterBits(base.cores[i].counters),
                  counterBits(slowed.cores[i].counters))
            << "core " << i;
    }
}

TEST(ShardedSystem, SwapAppRebindsAcrossShardBoundaries)
{
    const SimConfig cfg = config(8);
    ShardedSystem sys(cfg, workloads::mix("MIX1", 8), 4, 2);
    sys.maxFrequencies();
    sys.runWindow(cfg.profileWindow);

    const std::string before = sys.appOf(5).name();
    sys.swapApp(5, workloads::spec("swim"));
    EXPECT_EQ(sys.appOf(5).name(), "swim");
    EXPECT_NE(before, "swim");

    // The rebound core keeps simulating with the new profile.
    const double instr_before = sys.instructionsRetired(5);
    sys.runWindow(cfg.profileWindow);
    EXPECT_GT(sys.instructionsRetired(5), instr_before);
}

TEST(ShardedSystem, SkewedInterleaveFallsBackToModuloMapping)
{
    SimConfig cfg = config(8);
    cfg.numControllers = 2;
    cfg.interleave = InterleaveMode::Skewed;
    ShardedSystem sys(cfg, workloads::mix("MIX1", 8), 2, 1);
    // One-hot modulo rows regardless of the skew request.
    for (int i = 0; i < 8; ++i) {
        const std::vector<double> &row = sys.accessProbabilities(i);
        ASSERT_EQ(row.size(), 2u);
        EXPECT_DOUBLE_EQ(row[static_cast<std::size_t>(i % 2)], 1.0);
        EXPECT_DOUBLE_EQ(row[static_cast<std::size_t>((i + 1) % 2)],
                         0.0);
    }
}

} // namespace
} // namespace fastcap
