/**
 * @file
 * Validation oracles for the FastCap solver and the model fitter.
 *
 * The production governor runs one algorithm: the equivalence-class
 * inner solve (core/solver.hpp) under Algorithm 1's binary search
 * over memory levels, fitted by the incremental PowerLawTracker. This
 * library keeps the slower implementations that cross-check them —
 * linked by the test suites and the benches, never by src/:
 *
 *  - the historical per-core inner solve (one queuing evaluation and
 *    one pow per core per probe, fresh vectors per call), with the
 *    same arithmetic order the class path must match bit for bit;
 *  - the exhaustive scan over every admissible memory level, which
 *    the binary search must agree with;
 *  - Eq. 6's left-hand side at an explicit operating point;
 *  - the from-scratch least-squares fits the incremental tracker
 *    must reproduce to rounding.
 */

#ifndef FASTCAP_TESTS_SUPPORT_SOLVER_ORACLE_HPP
#define FASTCAP_TESTS_SUPPORT_SOLVER_ORACLE_HPP

#include <vector>

#include "core/inputs.hpp"
#include "core/solver.hpp"
#include "util/units.hpp"

namespace fastcap {
namespace oracle {

/**
 * Per-core reference inner solve at memory ratio x_b: the
 * implementation FastCapSolver::solveAtMemRatio must match bit for
 * bit (d, ratios, predicted power, feasibility, saturation flags).
 * Honours `opts.dTolerance` and `opts.socketBudgets`.
 */
InnerSolution referenceSolveAtMemRatio(const PolicyInputs &in,
                                       const SolverOptions &opts,
                                       double x_b);

/**
 * The per-core reference solve: a cold Algorithm 1 (binary search
 * over the admissible memory levels, scanning ladders of <= 3
 * admissible levels) over referenceSolveAtMemRatio. `opts.warmStart`
 * is ignored: the reference always searches cold. bench_overhead's
 * `BM_Solve*Reference` baseline.
 */
SolveResult referenceSolve(const PolicyInputs &in,
                           const SolverOptions &opts = SolverOptions{});

/** Which inner solve exhaustiveSolve runs at each memory level. */
enum class Inner
{
    Optimised, //!< FastCapSolver::solveAtMemIndex (class hot path)
    Reference, //!< referenceSolveAtMemRatio (per-core)
};

/**
 * Exhaustive memory search: the inner solve at every admissible
 * level (from the bus-utilisation floor up), keeping the first level
 * with the largest D. `evaluations` counts the levels scanned.
 * `opts.warmStart` is ignored.
 */
SolveResult exhaustiveSolve(const PolicyInputs &in,
                            const SolverOptions &opts = SolverOptions{},
                            Inner inner = Inner::Optimised);

/**
 * Model power at an explicit operating point — Eq. 6's left-hand
 * side: static power plus every core's and the memory's dynamic term.
 */
Watts modelPower(const PolicyInputs &in,
                 const std::vector<double> &core_ratios, double x_b);

/** Slope/intercept pair from a linear least-squares fit. */
struct LinearFit
{
    double slope = 0.0;
    double intercept = 0.0;
    /** Coefficient of determination; 1 means a perfect fit. */
    double r2 = 0.0;
    bool valid = false;
};

/**
 * Ordinary least squares y = slope * x + intercept.
 *
 * Needs at least two points with distinct x. With exactly two points
 * the fit is exact and r2 = 1.
 */
LinearFit fitLinear(const std::vector<double> &xs,
                    const std::vector<double> &ys);

/** Parameters of a power-law fit y = scale * x^exponent. */
struct PowerLawFit
{
    double scale = 0.0;
    double exponent = 0.0;
    double r2 = 0.0;
    bool valid = false;
};

/**
 * Fit y = scale * x^exponent by linear least squares in log-log space.
 *
 * Points with non-positive x or y are ignored (they have no
 * logarithm); the fit is invalid if fewer than two usable points with
 * distinct x remain. This is the batch form of the fit FastCap's
 * governor keeps incrementally each epoch (core/model_fitter.hpp) to
 * recover (P_i, alpha_i) from (frequency-ratio, dynamic power)
 * samples.
 */
PowerLawFit fitPowerLaw(const std::vector<double> &xs,
                        const std::vector<double> &ys);

} // namespace oracle
} // namespace fastcap

#endif // FASTCAP_TESTS_SUPPORT_SOLVER_ORACLE_HPP
