/**
 * @file
 * Tests for the solver hot path introduced for many-core scaling:
 * the structure-of-arrays / equivalence-class inner solve must be
 * *bit-identical* to the per-core reference implementation (the
 * validation oracle in tests/support/solver_oracle.hpp),
 * the warm-started memory search must pick the same level as a cold
 * search, and warm-started experiments must reproduce cold-start
 * epoch records exactly.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/fastcap_policy.hpp"
#include "core/solver.hpp"
#include "harness/experiment.hpp"
#include "solver_oracle.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "workload/spec_table.hpp"

namespace fastcap {
namespace {

/** Heterogeneous inputs with a controllable number of classes. */
PolicyInputs
classedInputs(std::size_t n, std::size_t distinct, std::uint64_t seed)
{
    Rng rng(seed);
    PolicyInputs in;

    std::vector<CoreModel> protos(distinct);
    for (CoreModel &c : protos) {
        c.zbar = rng.uniform(20e-9, 800e-9);
        c.cache = 7.5e-9;
        c.pi = rng.uniform(1.0, 3.5);
        c.alpha = rng.uniform(2.2, 3.1);
        c.pStatic = rng.uniform(0.8, 1.2);
        c.ipa = rng.uniform(100.0, 2000.0);
    }
    in.cores.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        in.cores[i] = protos[i % distinct];

    ControllerModel ctl;
    ctl.q = 1.4;
    ctl.u = 1.8;
    ctl.sm = 33e-9;
    ctl.sbBar = 1.875e-9;
    in.memory.controllers = {ctl};
    in.memory.pm = 8.0 + 0.25 * static_cast<double>(n);
    in.memory.beta = 1.1;
    in.memory.pStatic = 12.0;
    in.accessProbs.assign(n, {1.0});

    for (int i = 0; i < 10; ++i) {
        in.coreRatios.push_back((2.2 + 0.2 * i) / 4.0);
        in.memRatios.push_back((206.0 + 66.0 * i) / 800.0);
    }
    in.background = 10.0;

    double max_power = in.staticPower() + in.memory.pm;
    for (const CoreModel &c : in.cores)
        max_power += c.pi;
    in.budget = rng.uniform(0.45, 0.9) * max_power;
    return in;
}

/** EXPECT bit-equality of two inner solutions. */
void
expectBitIdentical(const InnerSolution &a, const InnerSolution &b,
                   const std::string &what)
{
    EXPECT_EQ(a.d, b.d) << what;
    EXPECT_EQ(a.memRatio, b.memRatio) << what;
    EXPECT_EQ(a.predictedPower, b.predictedPower) << what;
    EXPECT_EQ(a.budgetFeasible, b.budgetFeasible) << what;
    EXPECT_EQ(a.saturatedLow, b.saturatedLow) << what;
    EXPECT_EQ(a.saturatedHigh, b.saturatedHigh) << what;
    ASSERT_EQ(a.coreRatios.size(), b.coreRatios.size()) << what;
    for (std::size_t i = 0; i < a.coreRatios.size(); ++i)
        ASSERT_EQ(a.coreRatios[i], b.coreRatios[i])
            << what << " core " << i;
}

TEST(SolverHotPath, HomogeneousMixCollapsesToOneClass)
{
    const PolicyInputs in = classedInputs(64, 1, 7);
    FastCapSolver solver(in);
    EXPECT_EQ(solver.numClasses(), 1u);
}

TEST(SolverHotPath, ClassCountMatchesDistinctCores)
{
    const PolicyInputs in = classedInputs(64, 5, 11);
    FastCapSolver solver(in);
    EXPECT_EQ(solver.numClasses(), 5u);
}

TEST(SolverHotPath, DistinctAccessRowsSplitClasses)
{
    // Same core parameters, different controller-access rows: the
    // queuing response differs, so they must not share a class.
    PolicyInputs in = classedInputs(4, 1, 13);
    ControllerModel second = in.memory.controllers[0];
    second.sm = 55e-9;
    in.memory.controllers.push_back(second);
    in.accessProbs.assign(4, {0.5, 0.5});
    in.accessProbs[2] = {0.9, 0.1};
    FastCapSolver solver(in);
    EXPECT_EQ(solver.numClasses(), 2u);
}

TEST(SolverHotPath, InnerSolveBitIdenticalToReference)
{
    for (const std::size_t distinct : {std::size_t{1}, std::size_t{4},
                                       std::size_t{32}}) {
        const PolicyInputs in = classedInputs(32, distinct, 21);
        FastCapSolver fast(in);
        for (std::size_t m = 0; m < in.memRatios.size(); ++m) {
            expectBitIdentical(
                fast.solveAtMemIndex(m),
                oracle::referenceSolveAtMemRatio(in, SolverOptions{},
                                                 in.memRatios[m]),
                "level " + std::to_string(m) + " distinct " +
                    std::to_string(distinct));
        }
    }
}

TEST(SolverHotPath, FullSolveBitIdenticalToReference)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const PolicyInputs in = classedInputs(48, 6, seed);
        FastCapSolver fast(in);
        const SolveResult a = fast.solve();
        const SolveResult b = oracle::referenceSolve(in);
        EXPECT_EQ(a.memIndex, b.memIndex) << "seed " << seed;
        expectBitIdentical(a.best, b.best,
                           "seed " + std::to_string(seed));
    }
}

TEST(SolverHotPath, SocketBudgetsBitIdenticalToReference)
{
    const PolicyInputs in = classedInputs(16, 4, 33);
    SolverOptions opts;
    opts.socketBudgets = {{0, 8, in.budget * 0.45},
                          {8, 8, in.budget * 0.55}};

    FastCapSolver fast(in, opts);
    const SolveResult a = fast.solve();
    const SolveResult b = oracle::referenceSolve(in, opts);
    EXPECT_EQ(a.memIndex, b.memIndex);
    expectBitIdentical(a.best, b.best, "socket solve");
}

TEST(SolverHotPath, WarmStartPicksTheColdLevel)
{
    // Any hint — right, wrong, or out of range — must leave the
    // chosen level and solution identical to a cold search.
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const PolicyInputs in = classedInputs(24, 3, seed * 101);
        FastCapSolver cold(in);
        const SolveResult want = cold.solve();

        for (std::size_t hint = 0; hint < in.memRatios.size();
             hint += 3) {
            SolverOptions opts;
            opts.warmStart.valid = true;
            opts.warmStart.memIndex = hint;
            FastCapSolver warm(in, opts);
            const SolveResult got = warm.solve();
            EXPECT_EQ(got.memIndex, want.memIndex)
                << "seed " << seed << " hint " << hint;
            expectBitIdentical(got.best, want.best,
                               "seed " + std::to_string(seed) +
                                   " hint " + std::to_string(hint));
        }
    }
}

TEST(SolverHotPath, AccurateWarmStartSkipsLevelProbes)
{
    const PolicyInputs in = classedInputs(24, 3, 5);
    FastCapSolver cold(in);
    const SolveResult want = cold.solve();

    SolverOptions opts;
    opts.warmStart.valid = true;
    opts.warmStart.memIndex = want.memIndex;
    FastCapSolver warm(in, opts);
    const SolveResult got = warm.solve();
    EXPECT_EQ(got.memIndex, want.memIndex);
    EXPECT_LE(got.evaluations, 3)
        << "confirming a correct hint needs the hint and its "
           "neighbours only";
    EXPECT_LE(got.evaluations, want.evaluations);
}

TEST(SolverHotPath, SaturatedLowSurfacesInfeasibleBudget)
{
    PolicyInputs in = classedInputs(16, 2, 3);
    in.budget = in.staticPower() * 1.001; // below any dynamic floor
    Logger::global().level(LogLevel::Silent);
    FastCapSolver solver(in);
    const SolveResult res = solver.solve();
    Logger::global().level(LogLevel::Warn);
    EXPECT_FALSE(res.best.budgetFeasible);
    EXPECT_TRUE(res.best.saturatedLow)
        << "infeasibility must be an explicit diagnostic";
    EXPECT_FALSE(res.best.saturatedHigh);
    EXPECT_LT(res.best.d, 0.0) << "penalty ordering preserved";
}

TEST(SolverHotPath, SaturatedHighSurfacesAmpleBudget)
{
    PolicyInputs in = classedInputs(16, 2, 3);
    in.budget = in.budget * 100.0; // more than all-max draw
    FastCapSolver solver(in);
    const SolveResult res = solver.solve();
    EXPECT_TRUE(res.best.budgetFeasible);
    EXPECT_TRUE(res.best.saturatedHigh)
        << "budget above the level's ceiling clamps D at maxD";
    EXPECT_FALSE(res.best.saturatedLow);
}

TEST(SolverHotPath, WarmExperimentMatchesColdStartBitForBit)
{
    // End to end: FastCapPolicy warm-starts from the second epoch on.
    // Every physical quantity of every epoch — frequencies, powers,
    // instruction rates, completions — must match a policy whose
    // warm state is wiped before each decision. Only the evaluation
    // count (the complexity metric the warm start exists to reduce)
    // may differ.
    ExperimentConfig cfg;
    cfg.budgetFraction = 0.6;
    cfg.targetInstructions = 5e6;
    cfg.maxEpochs = 40;

    SimConfig sim = SimConfig::defaultConfig(8);
    sim.seed = 0xc01dca5eULL;

    /** FastCap with the warm-start hint dropped before every epoch. */
    class ColdFastCap : public FastCapPolicy
    {
      public:
        PolicyDecision
        decide(const PolicyInputs &inputs) override
        {
            reset(); // forget the previous epoch
            return FastCapPolicy::decide(inputs);
        }
    };

    FastCapPolicy warm_policy;
    ColdFastCap cold_policy;
    const std::vector<AppProfile> apps =
        workloads::mix("MIX1", sim.numCores);

    ExperimentRunner warm_run(sim, apps, warm_policy, cfg);
    const ExperimentResult warm = warm_run.run();
    ExperimentRunner cold_run(sim, apps, cold_policy, cfg);
    const ExperimentResult cold = cold_run.run();

    ASSERT_EQ(warm.epochs.size(), cold.epochs.size());
    int warm_evals = 0;
    int cold_evals = 0;
    for (std::size_t e = 0; e < warm.epochs.size(); ++e) {
        const EpochRecord &w = warm.epochs[e];
        const EpochRecord &c = cold.epochs[e];
        ASSERT_EQ(w.coreFreqIdx, c.coreFreqIdx) << "epoch " << e;
        ASSERT_EQ(w.memFreqIdx, c.memFreqIdx) << "epoch " << e;
        ASSERT_EQ(w.totalPower, c.totalPower) << "epoch " << e;
        ASSERT_EQ(w.corePower, c.corePower) << "epoch " << e;
        ASSERT_EQ(w.memPower, c.memPower) << "epoch " << e;
        ASSERT_EQ(w.ips, c.ips) << "epoch " << e;
        ASSERT_EQ(w.budget, c.budget) << "epoch " << e;
        ASSERT_EQ(w.duration, c.duration) << "epoch " << e;
        warm_evals += w.evaluations;
        cold_evals += c.evaluations;
    }
    ASSERT_EQ(warm.apps.size(), cold.apps.size());
    for (std::size_t i = 0; i < warm.apps.size(); ++i) {
        EXPECT_EQ(warm.apps[i].completionTime,
                  cold.apps[i].completionTime);
        EXPECT_EQ(warm.apps[i].completed, cold.apps[i].completed);
    }
    EXPECT_LT(warm_evals, cold_evals)
        << "the warm start must actually skip level probes";
}

} // namespace
} // namespace fastcap
