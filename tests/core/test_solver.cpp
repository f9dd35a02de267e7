/**
 * @file
 * Tests for the FastCap solver: Theorem 1 (tight constraints at the
 * optimum), Eq. 8 consistency, fairness of the inner solution, ladder
 * clamping, Algorithm 1 vs exhaustive search, and budget monotonicity
 * properties.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/solver.hpp"
#include "solver_oracle.hpp"
#include "util/logging.hpp"

namespace fastcap {
namespace {

/**
 * A heterogeneous 4-core scenario: two compute-bound cores, one
 * balanced, one memory-bound, single controller.
 */
PolicyInputs
scenario(double budget_watts)
{
    PolicyInputs in;
    in.cores.resize(4);
    const double zbars[] = {600e-9, 500e-9, 120e-9, 25e-9};
    const double pis[] = {3.2, 3.0, 2.4, 1.2};
    const double alphas[] = {2.9, 3.0, 2.7, 2.5};
    for (int i = 0; i < 4; ++i) {
        in.cores[i].zbar = zbars[i];
        in.cores[i].cache = 7.5e-9;
        in.cores[i].pi = pis[i];
        in.cores[i].alpha = alphas[i];
        in.cores[i].pStatic = 1.0;
        in.cores[i].ipa = 1000.0;
    }

    ControllerModel ctl;
    ctl.q = 1.4;
    ctl.u = 1.8;
    ctl.sm = 33e-9;
    ctl.sbBar = 1.875e-9;
    in.memory.controllers = {ctl};
    in.memory.pm = 12.0;
    in.memory.beta = 1.1;
    in.memory.pStatic = 12.0;

    in.accessProbs.assign(4, {1.0});
    // 10-level ladders like the paper.
    for (int i = 0; i < 10; ++i) {
        in.coreRatios.push_back((2.2 + 0.2 * i) / 4.0);
        in.memRatios.push_back((206.0 + 66.0 * i) / 800.0);
    }
    in.background = 10.0;
    in.budget = budget_watts;
    return in;
}

/** Max power of the scenario: all ratios 1. */
double
scenarioMaxPower(const PolicyInputs &in)
{
    double p = in.staticPower() + in.memory.pm;
    for (const CoreModel &c : in.cores)
        p += c.pi;
    return p;
}

TEST(Solver, AbundantBudgetGivesMaxEverything)
{
    PolicyInputs in = scenario(1000.0);
    FastCapSolver solver(in);
    const SolveResult res = solver.solve();
    EXPECT_EQ(res.memIndex, in.memRatios.size() - 1);
    EXPECT_NEAR(res.best.d, 1.0, 1e-6);
    for (double x : res.best.coreRatios)
        EXPECT_NEAR(x, 1.0, 1e-6);
    EXPECT_TRUE(res.best.budgetFeasible);
}

TEST(Solver, Theorem1PowerConstraintTightWhenBinding)
{
    PolicyInputs in = scenario(0.0);
    in.budget = 0.75 * scenarioMaxPower(in);
    FastCapSolver solver(in);
    const SolveResult res = solver.solve();

    // Theorem 1: the optimal solution consumes the entire budget.
    // The discrete memory ladder can strand at most one memory-level
    // power step of the budget, hence the asymmetric tolerance.
    EXPECT_LE(res.best.predictedPower, in.budget * 1.001);
    EXPECT_GT(res.best.predictedPower, 0.93 * in.budget);
    EXPECT_LT(res.best.d, 1.0);
    EXPECT_TRUE(res.best.budgetFeasible);
}

TEST(Solver, Theorem1PerformanceConstraintTight)
{
    // Constraint 5 is an equality for every core at the optimum:
    // each unclamped core's turn-around equals T̄_i / D exactly.
    PolicyInputs in = scenario(0.0);
    in.budget = 0.7 * scenarioMaxPower(in);
    FastCapSolver solver(in);
    const SolveResult res = solver.solve();
    const QueuingModel &qm = solver.queuing();

    const double x_min = in.minCoreRatio();
    for (std::size_t i = 0; i < in.cores.size(); ++i) {
        const double x = res.best.coreRatios[i];
        if (x <= x_min + 1e-9 || x >= 1.0 - 1e-9)
            continue; // ladder-clamped cores may deviate
        const double d_i = qm.performance(i, x, res.best.memRatio);
        EXPECT_NEAR(d_i, res.best.d, 1e-4)
            << "core " << i << " deviates from the common D";
    }
}

TEST(Solver, FairnessAllCoresShareDegradation)
{
    PolicyInputs in = scenario(0.0);
    in.budget = 0.65 * scenarioMaxPower(in);
    FastCapSolver solver(in);
    const SolveResult res = solver.solve();
    const QueuingModel &qm = solver.queuing();

    // Performance factors of unclamped cores agree; clamped cores can
    // only do better (they are pinned at a frequency *above* what
    // equal degradation would require... or at the floor, doing
    // worse is impossible given the budget holds).
    double min_d = 1.0;
    double max_d = 0.0;
    const double x_min = in.minCoreRatio();
    for (std::size_t i = 0; i < in.cores.size(); ++i) {
        const double x = res.best.coreRatios[i];
        if (x <= x_min + 1e-9)
            continue;
        const double d_i = qm.performance(i, x, res.best.memRatio);
        min_d = std::min(min_d, d_i);
        max_d = std::max(max_d, d_i);
    }
    EXPECT_LT(max_d - min_d, 1e-3);
}

TEST(Solver, Eq8Consistency)
{
    // z_i reconstructed from the returned ratios matches Eq. 8.
    PolicyInputs in = scenario(0.0);
    in.budget = 0.7 * scenarioMaxPower(in);
    FastCapSolver solver(in);
    const SolveResult res = solver.solve();
    const QueuingModel &qm = solver.queuing();

    const double x_min = in.minCoreRatio();
    for (std::size_t i = 0; i < in.cores.size(); ++i) {
        const double x = res.best.coreRatios[i];
        if (x <= x_min + 1e-9 || x >= 1.0 - 1e-9)
            continue;
        const Seconds z = in.cores[i].zbar / x;
        const Seconds z_eq8 = qm.minTurnaround(i) / res.best.d -
            in.cores[i].cache -
            qm.responseTime(i, res.best.memRatio);
        EXPECT_NEAR(z, z_eq8, 1e-6 * z);
    }
}

TEST(Solver, TinyBudgetPinsEverythingAtFloor)
{
    PolicyInputs in = scenario(1.0); // absurd 1 W budget
    FastCapSolver solver(in);
    const SolveResult res = solver.solve();
    EXPECT_FALSE(res.best.budgetFeasible);
    for (double x : res.best.coreRatios)
        EXPECT_NEAR(x, in.minCoreRatio(), 1e-9);
    EXPECT_EQ(res.memIndex, 0u);
}

TEST(Solver, DMonotoneInBudget)
{
    // More budget can never hurt the achieved D (the infeasible
    // region's penalty values are also monotone in the budget).
    double prev_d = -std::numeric_limits<double>::infinity();
    const double max_power = scenarioMaxPower(scenario(1.0));
    for (double frac : {0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
        PolicyInputs in = scenario(frac * max_power);
        FastCapSolver solver(in);
        const SolveResult res = solver.solve();
        EXPECT_GE(res.best.d, prev_d - 1e-9)
            << "budget fraction " << frac;
        prev_d = res.best.d;
    }
}

TEST(Solver, PowerNeverExceedsBudgetWhenFeasible)
{
    // Fractions above the platform's floor power (~64% of max here:
    // statics dominate this small scenario).
    for (double frac : {0.68, 0.75, 0.9}) {
        PolicyInputs in = scenario(0.0);
        in.budget = frac * scenarioMaxPower(in);
        FastCapSolver solver(in);
        const SolveResult res = solver.solve();
        ASSERT_TRUE(res.best.budgetFeasible);
        EXPECT_LE(res.best.predictedPower,
                  in.budget * (1.0 + 1e-3));
    }
}

TEST(Solver, BinarySearchMatchesExhaustive)
{
    // Algorithm 1's binary search must land on (a point as good as)
    // the exhaustive optimum.
    for (double frac : {0.5, 0.6, 0.7, 0.85}) {
        PolicyInputs in = scenario(0.0);
        in.budget = frac * scenarioMaxPower(in);

        SolverOptions tight;
        tight.dTolerance = 1e-8;
        FastCapSolver fast(in, tight);
        const SolveResult res_fast = fast.solve();

        const SolveResult res_full = oracle::exhaustiveSolve(in, tight);

        EXPECT_NEAR(res_fast.best.d, res_full.best.d,
                    1e-5 * std::abs(res_full.best.d) + 1e-12)
            << "budget fraction " << frac;
    }
}

TEST(Solver, BinarySearchUsesFewerEvaluations)
{
    PolicyInputs in = scenario(0.0);
    in.budget = 0.6 * scenarioMaxPower(in);

    FastCapSolver fast(in);
    (void)fast.solve();
    const SolveResult full = oracle::exhaustiveSolve(in);

    // O(log M) vs O(M): with M=10, the search needs at most ~8
    // distinct evaluations (memoized).
    EXPECT_LE(fast.evaluations(), 8);
    EXPECT_EQ(full.evaluations, 10);
}

TEST(Solver, MemoryBoundWorkloadKeepsMemoryFast)
{
    // All cores memory-bound: small z̄, low core power. Slowing the
    // memory is expensive in performance; the solver should keep the
    // memory level high and shed core power instead.
    PolicyInputs in = scenario(0.0);
    for (CoreModel &c : in.cores) {
        c.zbar = 20e-9;
        c.pi = 3.0; // enough core power to shed without touching memory
    }
    in.budget = 0.85 * scenarioMaxPower(in);
    FastCapSolver solver(in);
    const SolveResult res = solver.solve();
    EXPECT_GE(res.memIndex, in.memRatios.size() / 2);
}

TEST(Solver, ComputeBoundWorkloadSlowsMemory)
{
    // All cores compute-bound: memory frequency barely affects
    // turn-around, so the solver harvests memory power.
    PolicyInputs in = scenario(0.0);
    for (CoreModel &c : in.cores)
        c.zbar = 900e-9;
    in.budget = 0.7 * scenarioMaxPower(in);
    FastCapSolver solver(in);
    const SolveResult res = solver.solve();
    EXPECT_LE(res.memIndex, 2u);
}

TEST(Solver, EvaluationsLinearInCores)
{
    // The number of inner evaluations is independent of N (each is
    // O(N)); this is the O(N log M) claim's structure.
    for (std::size_t n : {4u, 16u, 64u}) {
        PolicyInputs in = scenario(0.0);
        const CoreModel proto = in.cores[0];
        in.cores.assign(n, proto);
        in.accessProbs.assign(n, {1.0});
        in.budget = 0.6 * scenarioMaxPower(in);
        FastCapSolver solver(in);
        (void)solver.solve();
        EXPECT_LE(solver.evaluations(), 8)
            << "evaluations must not grow with N (" << n << ")";
    }
}

TEST(Solver, RejectsDegenerateInputs)
{
    PolicyInputs empty;
    empty.budget = 10.0;
    empty.memRatios = {1.0};
    EXPECT_THROW(FastCapSolver s(empty), FatalError);

    PolicyInputs in = scenario(50.0);
    in.memRatios.clear();
    EXPECT_THROW(FastCapSolver s2(in), FatalError);

    PolicyInputs in3 = scenario(50.0);
    in3.budget = -1.0;
    EXPECT_THROW(FastCapSolver s3(in3), FatalError);
}

/** Budget sweep property: Theorem 1 holds across the binding range. */
class SolverBudgetProperty : public ::testing::TestWithParam<double>
{};

TEST_P(SolverBudgetProperty, TightWheneverBinding)
{
    PolicyInputs in = scenario(0.0);
    const double max_power = scenarioMaxPower(in);
    in.budget = GetParam() * max_power;
    FastCapSolver solver(in);
    const SolveResult res = solver.solve();

    const double floor = [&] {
        PolicyInputs tiny = scenario(1.0);
        FastCapSolver s(tiny);
        return s.solveAtMemIndex(0).predictedPower;
    }();

    if (in.budget >= max_power) {
        EXPECT_NEAR(res.best.d, 1.0, 1e-6);
    } else if (in.budget > floor * 1.02) {
        // Binding region: full budget consumed (Theorem 1). The
        // discrete memory ladder leaves at most the gap between
        // adjacent memory power levels unharvested.
        EXPECT_GT(res.best.predictedPower, 0.90 * in.budget);
        EXPECT_LE(res.best.predictedPower, in.budget * 1.001);
    }
}

INSTANTIATE_TEST_SUITE_P(BudgetSweep, SolverBudgetProperty,
                         ::testing::Values(0.45, 0.5, 0.55, 0.6, 0.65,
                                           0.7, 0.75, 0.8, 0.85, 0.9,
                                           0.95, 1.0));

} // namespace
} // namespace fastcap
