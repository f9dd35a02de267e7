/**
 * @file
 * Tests for the online Eq. 2 / Eq. 3 power-model fitter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <vector>

#include "core/model_fitter.hpp"
#include "solver_oracle.hpp"
#include "util/logging.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace fastcap {
namespace {

TEST(PowerLawTracker, BootstrapUsesDefaultExponent)
{
    PowerLawTracker t(2.5);
    t.observe(1.0, 4.0);
    const FittedModel m = t.model();
    EXPECT_FALSE(m.fromFit);
    EXPECT_DOUBLE_EQ(m.exponent, 2.5);
    EXPECT_DOUBLE_EQ(m.scale, 4.0); // 4.0 / 1.0^2.5
}

TEST(PowerLawTracker, BootstrapScalesFromSample)
{
    PowerLawTracker t(2.0);
    t.observe(0.5, 1.0);
    const FittedModel m = t.model();
    // scale = 1.0 / 0.5^2 = 4.
    EXPECT_NEAR(m.scale, 4.0, 1e-12);
}

TEST(PowerLawTracker, TwoSamplesGiveExactFit)
{
    PowerLawTracker t(2.5);
    // Ground truth: P = 3.2 x^2.8.
    t.observe(1.0, 3.2);
    t.observe(0.55, 3.2 * std::pow(0.55, 2.8));
    const FittedModel m = t.model();
    EXPECT_TRUE(m.fromFit);
    EXPECT_NEAR(m.exponent, 2.8, 1e-9);
    EXPECT_NEAR(m.scale, 3.2, 1e-9);
}

TEST(PowerLawTracker, HistoryKeepsLastThreeFrequencies)
{
    PowerLawTracker t(2.5, 3);
    const double alpha = 3.0;
    // Observe at four distinct ratios; the first must be evicted.
    for (double x : {1.0, 0.9, 0.8, 0.7})
        t.observe(x, 2.0 * std::pow(x, alpha));
    EXPECT_EQ(t.samples(), 3u);
    EXPECT_NEAR(t.model().exponent, alpha, 1e-9);
}

TEST(PowerLawTracker, RepeatRatioRefreshesInsteadOfEvicting)
{
    PowerLawTracker t(2.5, 3);
    t.observe(1.0, 4.0);
    t.observe(0.8, 2.0);
    EXPECT_EQ(t.samples(), 2u);
    // Same ratio again: history size unchanged, power smoothed.
    t.observe(1.0, 6.0);
    EXPECT_EQ(t.samples(), 2u);
}

TEST(PowerLawTracker, IgnoresNonPositivePower)
{
    PowerLawTracker t(2.5);
    t.observe(1.0, 0.0);
    t.observe(1.0, -3.0);
    EXPECT_EQ(t.samples(), 0u);
}

TEST(PowerLawTracker, IgnoresOutOfRangeRatio)
{
    PowerLawTracker t(2.5);
    t.observe(1.5, 2.0);
    t.observe(-0.2, 2.0);
    EXPECT_EQ(t.samples(), 0u);
}

TEST(PowerLawTracker, ExponentClampedForRobustness)
{
    PowerLawTracker t(2.5, 3, 0.3, 4.0);
    // Pathological samples implying alpha ~ 9.
    t.observe(1.0, 8.0);
    t.observe(0.5, 8.0 * std::pow(0.5, 9.0));
    const FittedModel m = t.model();
    EXPECT_LE(m.exponent, 4.0);
    // Scale re-anchored so prediction near the freshest sample.
    const double pred = m.scale * std::pow(0.5, m.exponent);
    EXPECT_NEAR(pred, 8.0 * std::pow(0.5, 9.0), 1e-9);
}

TEST(PowerLawTracker, NoisyFitTracksTruth)
{
    PowerLawTracker t(2.5, 3);
    const double alpha = 2.9;
    const double scale = 4.1;
    double sign = 1.0;
    for (double x : {1.0, 0.77, 0.55}) {
        sign = -sign;
        t.observe(x, scale * std::pow(x, alpha) * (1.0 + sign * 0.02));
    }
    const FittedModel m = t.model();
    EXPECT_NEAR(m.exponent, alpha, 0.35);
    EXPECT_NEAR(m.scale, scale, 0.4);
}

TEST(PowerLawTracker, HistoryBelowTwoIsFatal)
{
    EXPECT_THROW(PowerLawTracker(2.5, 1), FatalError);
}

TEST(ModelFitter, TracksAllCoresIndependently)
{
    ModelFitter f(3);
    f.observeCore(0, 1.0, 4.0);
    f.observeCore(0, 0.55, 4.0 * std::pow(0.55, 3.0));
    f.observeCore(1, 1.0, 2.0);
    // Core 0: fitted alpha=3; core 1: bootstrap; core 2: untouched.
    EXPECT_NEAR(f.core(0).exponent, 3.0, 1e-9);
    EXPECT_TRUE(f.core(0).fromFit);
    EXPECT_FALSE(f.core(1).fromFit);
    EXPECT_DOUBLE_EQ(f.core(2).scale, 0.0);
    EXPECT_THROW(f.observeCore(9, 1.0, 1.0), std::out_of_range);
}

TEST(ModelFitter, MemoryUsesBetaDefault)
{
    ModelFitter f(1, 2.5, 1.0);
    f.observeMemory(1.0, 14.0);
    EXPECT_DOUBLE_EQ(f.memory().exponent, 1.0);
    EXPECT_DOUBLE_EQ(f.memory().scale, 14.0);

    // With a second sample the fitted beta emerges.
    f.observeMemory(0.5, 7.5);
    const double beta = f.memory().exponent;
    EXPECT_NEAR(beta, std::log(7.5 / 14.0) / std::log(0.5), 1e-9);
}

/**
 * The tracker's incremental (rank-1 moment update) fit must agree
 * with a from-scratch batch oracle::fitPowerLaw over the same history,
 * within tolerance, through thousands of observations — new frequencies,
 * in-place refreshes and evictions all update the running sums, so
 * this is where accumulated drift would show.
 */
TEST(PowerLawTracker, IncrementalFitTracksBatchFitWithinTolerance)
{
    const double min_exp = 0.3;
    const double max_exp = 4.0;
    PowerLawTracker t(2.5, 3, min_exp, max_exp);

    // Shadow history replicating the tracker's rules: distinct-ratio
    // slots (refreshes smooth in place), capacity 3, FIFO eviction.
    struct Obs
    {
        double ratio;
        double power;
    };
    std::deque<Obs> shadow;

    Rng rng(0x1234abcdULL);
    for (int step = 0; step < 4000; ++step) {
        // Ladder-like ratios so refreshes are frequent, with a noisy
        // power law (alpha ~2.7) plus occasional outliers that push
        // the fitted exponent into the clamp.
        const double ratio =
            (2.2 + 0.2 * static_cast<double>(rng.below(10))) / 4.0;
        double power = 3.0 * std::pow(ratio, 2.7) *
            rng.uniform(0.8, 1.25);
        if (step % 97 == 0)
            power *= 8.0; // exponent-clamp excursion
        t.observe(ratio, power);

        auto same = std::find_if(shadow.begin(), shadow.end(),
                                 [&](const Obs &o) {
                                     return approxEqual(o.ratio,
                                                        ratio, 1e-6);
                                 });
        if (same != shadow.end()) {
            same->power = 0.5 * same->power + 0.5 * power;
        } else {
            shadow.push_back({ratio, power});
            while (shadow.size() > 3)
                shadow.pop_front();
        }

        if (shadow.size() < 2)
            continue;
        std::vector<double> xs, ys;
        for (const Obs &o : shadow) {
            xs.push_back(o.ratio);
            ys.push_back(o.power);
        }
        const oracle::PowerLawFit fit = oracle::fitPowerLaw(xs, ys);
        ASSERT_TRUE(fit.valid) << "step " << step;
        const double exp_batch =
            std::clamp(fit.exponent, min_exp, max_exp);
        double scale_batch;
        if (approxEqual(exp_batch, fit.exponent))
            scale_batch = fit.scale;
        else
            scale_batch = shadow.back().power /
                std::pow(shadow.back().ratio, exp_batch);

        const FittedModel m = t.model();
        EXPECT_TRUE(m.fromFit) << "step " << step;
        EXPECT_TRUE(approxEqual(m.exponent, exp_batch, 1e-9))
            << "step " << step << ": " << m.exponent << " vs "
            << exp_batch;
        EXPECT_TRUE(approxEqual(m.scale, scale_batch, 1e-9))
            << "step " << step << ": " << m.scale << " vs "
            << scale_batch;
    }
}

} // namespace
} // namespace fastcap
