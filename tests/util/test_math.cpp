/**
 * @file
 * Tests for root finding — the numeric engine behind the FastCap
 * inner solve — and for the batch least-squares fits of the test
 * oracles the online model fitter is checked against.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "solver_oracle.hpp"
#include "util/math.hpp"

namespace fastcap {
namespace {

TEST(Bisect, FindsSimpleRoot)
{
    const auto f = [](double x) { return x * x - 4.0; };
    const RootResult r = bisect(f, 0.0, 10.0);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x, 2.0, 1e-9);
}

TEST(Bisect, AcceptsRootAtEndpoint)
{
    const auto f = [](double x) { return x - 1.0; };
    const RootResult r = bisect(f, 1.0, 5.0);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x, 1.0, 1e-9);
}

TEST(Bisect, ReportsNoSignChange)
{
    const auto f = [](double x) { return x * x + 1.0; };
    const RootResult r = bisect(f, -1.0, 1.0);
    EXPECT_FALSE(r.converged);
}

TEST(Bisect, SwapsReversedBracket)
{
    const auto f = [](double x) { return x - 3.0; };
    const RootResult r = bisect(f, 10.0, 0.0);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x, 3.0, 1e-9);
}

TEST(SolveMonotone, SaturatesLowWhenAlwaysPositive)
{
    // f(lo) > 0: even the lowest x overshoots the target.
    const auto f = [](double x) { return x + 1.0; };
    const RootResult r = solveMonotone(f, 0.0, 10.0);
    EXPECT_TRUE(r.converged);
    EXPECT_DOUBLE_EQ(r.x, 0.0);
}

TEST(SolveMonotone, SaturatesHighWhenAlwaysNegative)
{
    const auto f = [](double x) { return x - 100.0; };
    const RootResult r = solveMonotone(f, 0.0, 10.0);
    EXPECT_TRUE(r.converged);
    EXPECT_DOUBLE_EQ(r.x, 10.0);
}

TEST(SolveMonotone, FindsInteriorRoot)
{
    const auto f = [](double x) { return std::pow(x, 3.0) - 27.0; };
    const RootResult r = solveMonotone(f, 0.0, 10.0);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x, 3.0, 1e-8);
}

// Regression (ISSUE 4): endpoint convergence used to leave
// iterations == 0 even though the solve evaluated f, so callers
// metering cost could not tell a solved bracket from one never run.
TEST(Bisect, EndpointConvergenceCountsEvaluations)
{
    const auto at_lo = [](double x) { return x - 1.0; };
    const RootResult lo = bisect(at_lo, 1.0, 5.0);
    EXPECT_TRUE(lo.converged);
    EXPECT_EQ(lo.iterations, 1) << "f(lo) was evaluated";

    const auto at_hi = [](double x) { return x - 5.0; };
    const RootResult hi = bisect(at_hi, 1.0, 5.0);
    EXPECT_TRUE(hi.converged);
    EXPECT_EQ(hi.iterations, 2) << "f(lo) and f(hi) were evaluated";

    const auto no_sign = [](double x) { return x * x + 1.0; };
    const RootResult ns = bisect(no_sign, -1.0, 1.0);
    EXPECT_FALSE(ns.converged);
    EXPECT_EQ(ns.iterations, 2);
}

TEST(Bisect, InteriorRootCountsAllEvaluations)
{
    int calls = 0;
    const auto f = [&calls](double x) {
        ++calls;
        return x - 3.0;
    };
    const RootResult r = bisect(f, 0.0, 10.0, 1e-12, 1e-12);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.iterations, calls)
        << "iterations must equal the evaluations consumed";
    EXPECT_GT(r.iterations, 2);
}

// Regression (ISSUE 4): saturated endpoints used to report
// converged=true with a large residual, indistinguishable from a
// genuine root. The saturated flag makes infeasibility explicit.
TEST(SolveMonotone, FlagsSaturatedLowEndpoint)
{
    const auto f = [](double x) { return x + 50.0; };
    const RootResult r = solveMonotone(f, 0.0, 10.0);
    EXPECT_TRUE(r.converged);
    EXPECT_TRUE(r.saturated) << "residual 50 at the clamp";
    EXPECT_DOUBLE_EQ(r.x, 0.0);
    EXPECT_EQ(r.iterations, 1);
}

TEST(SolveMonotone, FlagsSaturatedHighEndpoint)
{
    const auto f = [](double x) { return x - 100.0; };
    const RootResult r = solveMonotone(f, 0.0, 10.0);
    EXPECT_TRUE(r.converged);
    EXPECT_TRUE(r.saturated);
    EXPECT_DOUBLE_EQ(r.x, 10.0);
    EXPECT_EQ(r.iterations, 2);
}

TEST(SolveMonotone, GenuineEndpointRootIsNotSaturated)
{
    // f(lo) = 0 exactly: the clamp and the root coincide; this is a
    // solution, not a saturation diagnostic.
    const auto f = [](double x) { return x; };
    const RootResult r = solveMonotone(f, 0.0, 10.0);
    EXPECT_TRUE(r.converged);
    EXPECT_FALSE(r.saturated);
    EXPECT_DOUBLE_EQ(r.x, 0.0);
}

TEST(SolveMonotone, InteriorRootIsNotSaturated)
{
    const auto f = [](double x) { return x - 4.0; };
    const RootResult r = solveMonotone(f, 0.0, 10.0);
    EXPECT_TRUE(r.converged);
    EXPECT_FALSE(r.saturated);
    EXPECT_NEAR(r.x, 4.0, 1e-8);
}

TEST(FitLinear, ExactTwoPointFit)
{
    const std::vector<double> xs{1.0, 3.0};
    const std::vector<double> ys{2.0, 8.0};
    const oracle::LinearFit fit = oracle::fitLinear(xs, ys);
    ASSERT_TRUE(fit.valid);
    EXPECT_NEAR(fit.slope, 3.0, 1e-12);
    EXPECT_NEAR(fit.intercept, -1.0, 1e-12);
    EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(FitLinear, RejectsDegenerateInput)
{
    const std::vector<double> xs{2.0, 2.0};
    const std::vector<double> ys{1.0, 3.0};
    EXPECT_FALSE(oracle::fitLinear(xs, ys).valid);
    EXPECT_FALSE(oracle::fitLinear(std::vector<double>{1.0},
                                   std::vector<double>{1.0}).valid);
}

TEST(FitLinear, NoisyFitRecoversSlope)
{
    std::vector<double> xs, ys;
    for (int i = 0; i < 50; ++i) {
        const double x = 0.1 * i;
        xs.push_back(x);
        ys.push_back(2.5 * x + 1.0 + ((i % 2) ? 0.01 : -0.01));
    }
    const oracle::LinearFit fit = oracle::fitLinear(xs, ys);
    ASSERT_TRUE(fit.valid);
    EXPECT_NEAR(fit.slope, 2.5, 0.01);
    EXPECT_GT(fit.r2, 0.999);
}

TEST(FitPowerLaw, RecoversExactPowerLaw)
{
    // y = 3.5 x^2.7 — the Eq. 2 shape.
    std::vector<double> xs, ys;
    for (double x : {0.55, 0.75, 1.0}) {
        xs.push_back(x);
        ys.push_back(3.5 * std::pow(x, 2.7));
    }
    const oracle::PowerLawFit fit = oracle::fitPowerLaw(xs, ys);
    ASSERT_TRUE(fit.valid);
    EXPECT_NEAR(fit.scale, 3.5, 1e-9);
    EXPECT_NEAR(fit.exponent, 2.7, 1e-9);
}

TEST(FitPowerLaw, IgnoresNonPositivePoints)
{
    const std::vector<double> xs{-1.0, 0.5, 1.0, 0.0};
    const std::vector<double> ys{5.0, std::sqrt(0.5) * 2.0, 2.0, 7.0};
    const oracle::PowerLawFit fit = oracle::fitPowerLaw(xs, ys);
    ASSERT_TRUE(fit.valid);
    EXPECT_NEAR(fit.exponent, 0.5, 1e-9);
    EXPECT_NEAR(fit.scale, 2.0, 1e-9);
}

TEST(FitPowerLaw, InvalidWithOneUsablePoint)
{
    const std::vector<double> xs{1.0};
    const std::vector<double> ys{2.0};
    EXPECT_FALSE(oracle::fitPowerLaw(xs, ys).valid);
}

TEST(ClampSafe, HandlesReversedBounds)
{
    EXPECT_DOUBLE_EQ(clampSafe(5.0, 10.0, 0.0), 5.0);
    EXPECT_DOUBLE_EQ(clampSafe(-1.0, 0.0, 10.0), 0.0);
    EXPECT_DOUBLE_EQ(clampSafe(11.0, 0.0, 10.0), 10.0);
}

TEST(ApproxEqual, RelativeToleranceSemantics)
{
    EXPECT_TRUE(approxEqual(1e9, 1e9 + 1.0, 1e-8));
    EXPECT_FALSE(approxEqual(1.0, 1.1, 1e-3));
    EXPECT_TRUE(approxEqual(0.0, 0.0));
}

/** Property sweep: monotone solve hits the budget across scales. */
class SolveMonotoneProperty
    : public ::testing::TestWithParam<double>
{};

TEST_P(SolveMonotoneProperty, RootResidualSmall)
{
    const double target = GetParam();
    const auto f = [target](double d) {
        // Shape of FastCap's inner residual: sum of power-law terms
        // minus a budget.
        return 10.0 * std::pow(d, 3.0) + 4.0 * d - target;
    };
    const RootResult r = solveMonotone(f, 1e-6, 1.0);
    ASSERT_TRUE(r.converged);
    if (f(1e-6) > 0.0) {
        EXPECT_DOUBLE_EQ(r.x, 1e-6);
    } else if (f(1.0) < 0.0) {
        EXPECT_DOUBLE_EQ(r.x, 1.0);
    } else {
        EXPECT_NEAR(f(r.x), 0.0, 1e-6 * std::max(1.0, target));
    }
}

INSTANTIATE_TEST_SUITE_P(Targets, SolveMonotoneProperty,
                         ::testing::Values(0.5, 1.0, 2.0, 5.0, 13.9,
                                           14.0, 100.0));

} // namespace
} // namespace fastcap
