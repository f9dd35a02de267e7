/**
 * @file
 * Tests for the per-processor budget extension (Section III-B: "the
 * optimization can be extended to capture per-processor power budgets
 * by adding a constraint similar to constraint 6 for each
 * processor").
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "solver_oracle.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace fastcap {
namespace {

/** Two-socket scenario: cores 0-1 on socket A, 2-3 on socket B. */
PolicyInputs
twoSocketInputs(double budget)
{
    PolicyInputs in;
    in.cores.resize(4);
    const double zbars[] = {600e-9, 500e-9, 550e-9, 450e-9};
    for (int i = 0; i < 4; ++i) {
        in.cores[i].zbar = zbars[i];
        in.cores[i].cache = 7.5e-9;
        in.cores[i].pi = 3.0;
        in.cores[i].alpha = 2.8;
        in.cores[i].pStatic = 1.0;
        in.cores[i].ipa = 2000.0;
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
    for (int i = 0; i < 10; ++i) {
        in.coreRatios.push_back((2.2 + 0.2 * i) / 4.0);
        in.memRatios.push_back((206.0 + 66.0 * i) / 800.0);
    }
    in.background = 10.0;
    in.budget = budget;
    return in;
}

double
socketPower(const PolicyInputs &in, const InnerSolution &sol,
            std::size_t first, std::size_t count)
{
    double p = 0.0;
    for (std::size_t i = first; i < first + count; ++i)
        p += in.cores[i].pi *
            std::pow(sol.coreRatios[i], in.cores[i].alpha) +
            in.cores[i].pStatic;
    return p;
}

TEST(SocketBudgets, LooseSocketBudgetsChangeNothing)
{
    const PolicyInputs in = twoSocketInputs(40.0);

    FastCapSolver plain(in);
    const SolveResult base = plain.solve();

    SolverOptions opts;
    opts.socketBudgets = {{0, 2, 100.0}, {2, 2, 100.0}};
    FastCapSolver socketed(in, opts);
    const SolveResult res = socketed.solve();

    EXPECT_NEAR(res.best.d, base.best.d, 1e-9);
    EXPECT_EQ(res.memIndex, base.memIndex);
}

TEST(SocketBudgets, TightSocketBudgetLowersD)
{
    const PolicyInputs in = twoSocketInputs(60.0);

    FastCapSolver plain(in);
    const SolveResult base = plain.solve();

    SolverOptions opts;
    // Socket A max power: 2 * (3.0 + 1.0) = 8 W; constrain to 5 W.
    opts.socketBudgets = {{0, 2, 5.0}};
    FastCapSolver socketed(in, opts);
    const SolveResult res = socketed.solve();

    EXPECT_LT(res.best.d, base.best.d);
    // The constrained socket sits at (or under) its own budget.
    EXPECT_LE(socketPower(in, res.best, 0, 2), 5.0 * 1.001 + 1e-9);
}

TEST(SocketBudgets, FairnessSharedAcrossSockets)
{
    // Even though only socket A is constrained, all cores run at the
    // common D — socket B's applications degrade equally rather than
    // racing ahead (system-wide fairness).
    const PolicyInputs in = twoSocketInputs(60.0);
    SolverOptions opts;
    opts.socketBudgets = {{0, 2, 5.0}};
    FastCapSolver solver(in, opts);
    const SolveResult res = solver.solve();
    const QueuingModel &qm = solver.queuing();

    const double x_min = in.minCoreRatio();
    double lo = 1.0;
    double hi = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
        const double x = res.best.coreRatios[i];
        if (x <= x_min + 1e-9 || x >= 1.0 - 1e-9)
            continue;
        const double d = qm.performance(i, x, res.best.memRatio);
        lo = std::min(lo, d);
        hi = std::max(hi, d);
    }
    EXPECT_LT(hi - lo, 1e-3);
}

TEST(SocketBudgets, FeasibilityFlagCoversSockets)
{
    const PolicyInputs in = twoSocketInputs(60.0);
    SolverOptions opts;
    // Below socket A's floor power (2 * (3.0 * 0.55^2.8 + 1.0) ~ 3.1).
    opts.socketBudgets = {{0, 2, 2.0}};
    FastCapSolver solver(in, opts);
    const SolveResult res = solver.solve();
    EXPECT_FALSE(res.best.budgetFeasible);
    // Constrained cores pinned at the ladder floor.
    EXPECT_NEAR(res.best.coreRatios[0], in.minCoreRatio(), 1e-9);
    EXPECT_NEAR(res.best.coreRatios[1], in.minCoreRatio(), 1e-9);
}

TEST(SocketBudgets, OutOfRangeSocketIsFatal)
{
    const PolicyInputs in = twoSocketInputs(40.0);
    SolverOptions opts;
    opts.socketBudgets = {{3, 4, 10.0}};
    FastCapSolver solver(in, opts);
    EXPECT_THROW(solver.solve(), FatalError);

    SolverOptions empty_range;
    empty_range.socketBudgets = {{0, 0, 10.0}};
    FastCapSolver solver2(in, empty_range);
    EXPECT_THROW(solver2.solve(), FatalError);
}

TEST(SocketBudgets, BothSocketsTightMeansMinRules)
{
    const PolicyInputs in = twoSocketInputs(60.0);

    SolverOptions only_a;
    only_a.socketBudgets = {{0, 2, 5.0}};
    FastCapSolver sa(in, only_a);
    const double d_a = sa.solve().best.d;

    SolverOptions only_b;
    only_b.socketBudgets = {{2, 2, 4.5}};
    FastCapSolver sb(in, only_b);
    const double d_b = sb.solve().best.d;

    SolverOptions both;
    both.socketBudgets = {{0, 2, 5.0}, {2, 2, 4.5}};
    FastCapSolver sboth(in, both);
    const double d_both = sboth.solve().best.d;

    EXPECT_NEAR(d_both, std::min(d_a, d_b), 1e-6);
}

/**
 * Random many-core inputs drawn from a handful of parameter
 * templates, so equivalence classes are real (cores repeat) and
 * random socket boundaries straddle them.
 */
PolicyInputs
randomTemplatedInputs(Rng &rng)
{
    PolicyInputs in;
    const std::size_t n = 8 + rng.below(120);
    const std::size_t templates = 1 + rng.below(5);
    std::vector<CoreModel> tpl(templates);
    for (CoreModel &c : tpl) {
        c.zbar = rng.uniform(15e-9, 900e-9);
        c.cache = 7.5e-9;
        c.pi = rng.uniform(0.8, 4.0);
        c.alpha = rng.uniform(2.0, 3.2);
        c.pStatic = rng.uniform(0.6, 1.4);
        c.ipa = rng.uniform(50.0, 3000.0);
    }
    in.cores.resize(n);
    for (CoreModel &c : in.cores)
        c = tpl[rng.below(templates)];

    ControllerModel ctl;
    ctl.q = rng.uniform(1.0, 4.0);
    ctl.u = rng.uniform(1.0, 4.0);
    ctl.sm = rng.uniform(20e-9, 60e-9);
    ctl.sbBar = rng.uniform(1e-9, 4e-9);
    in.memory.controllers = {ctl};
    in.memory.pm = rng.uniform(6.0, 20.0);
    in.memory.beta = rng.uniform(0.8, 1.4);
    in.memory.pStatic = rng.uniform(8.0, 16.0);
    in.accessProbs.assign(n, {1.0});
    for (int i = 0; i < 10; ++i) {
        in.coreRatios.push_back((2.2 + 0.2 * i) / 4.0);
        in.memRatios.push_back((206.0 + 66.0 * i) / 800.0);
    }
    in.background = 10.0;

    double max_power = in.staticPower() + in.memory.pm;
    for (const CoreModel &c : in.cores)
        max_power += c.pi;
    in.budget = rng.uniform(0.35, 1.05) * max_power;
    return in;
}

/**
 * The per-socket class partition must not change a single bit of the
 * solve: fuzz random contiguous socket layouts (1-6 sockets, random
 * boundaries, tight and loose budgets) against the per-core
 * reference implementation.
 */
TEST(SocketBudgets, PartitionedSocketProbesBitIdenticalToReference)
{
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        Rng rng(seed * 0x9e3779b97f4a7c15ULL);
        const PolicyInputs in = randomTemplatedInputs(rng);

        // Random contiguous partition of [0, n) into 1-6 sockets.
        const std::size_t n = in.cores.size();
        const std::size_t sockets =
            1 + rng.below(std::min<std::size_t>(6, n));
        std::vector<std::size_t> cuts = {0, n};
        while (cuts.size() < sockets + 1) {
            const std::size_t c = 1 + rng.below(n - 1);
            if (std::find(cuts.begin(), cuts.end(), c) == cuts.end())
                cuts.push_back(c);
        }
        std::sort(cuts.begin(), cuts.end());

        SolverOptions opt_opts;
        for (std::size_t s = 0; s + 1 < cuts.size(); ++s) {
            const std::size_t count = cuts[s + 1] - cuts[s];
            const double frac = rng.uniform(0.2, 1.2);
            opt_opts.socketBudgets.push_back(
                {cuts[s], count,
                 in.budget * frac * static_cast<double>(count) /
                     static_cast<double>(n)});
        }
        FastCapSolver optimised(in, opt_opts);
        const SolveResult a = optimised.solve();
        const SolveResult b = oracle::exhaustiveSolve(
            in, opt_opts, oracle::Inner::Reference);

        const std::string ctx = "seed " + std::to_string(seed);
        ASSERT_EQ(a.memIndex, b.memIndex) << ctx;
        ASSERT_EQ(a.best.d, b.best.d) << ctx;
        ASSERT_EQ(a.best.predictedPower, b.best.predictedPower)
            << ctx;
        ASSERT_EQ(a.best.budgetFeasible, b.best.budgetFeasible)
            << ctx;
        ASSERT_EQ(a.best.saturatedLow, b.best.saturatedLow) << ctx;
        ASSERT_EQ(a.best.saturatedHigh, b.best.saturatedHigh) << ctx;
        for (std::size_t i = 0; i < a.best.coreRatios.size(); ++i)
            ASSERT_EQ(a.best.coreRatios[i], b.best.coreRatios[i])
                << ctx << " core " << i;
    }
}

} // namespace
} // namespace fastcap
