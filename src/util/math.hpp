/**
 * @file
 * Numerical routines used by the FastCap solver: bracketed root
 * finding and exact-bit and tolerant comparisons.
 */

#ifndef FASTCAP_UTIL_MATH_HPP
#define FASTCAP_UTIL_MATH_HPP

#include <cstdint>
#include <cstring>
#include <functional>
#include <utility>

namespace fastcap {

/**
 * Bit pattern of a double: the *exact* equality key (-0.0 != 0.0,
 * NaNs by payload) used wherever "same value" must mean "same bits" —
 * solver equivalence classes, ladder-mapping memoisation, cache keys.
 */
inline std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double is 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** Result of a 1-D root solve. */
struct RootResult
{
    double x = 0.0;        //!< located root (or best bracket midpoint)
    double fx = 0.0;       //!< residual f(x)
    /**
     * Function evaluations consumed, counted in every return path
     * (endpoint pre-checks included) so callers can meter cost even
     * when the solve exits before the main loop.
     */
    int iterations = 0;
    bool converged = false;
    /**
     * The solve clamped to a bracket endpoint whose residual exceeds
     * tol_f: no root lies inside [lo, hi]. Distinguishes a genuine
     * root at an endpoint (converged, !saturated) from a solve pinned
     * against the bracket (converged, saturated, |fx| large) — e.g. a
     * power budget below the platform's floor power.
     */
    bool saturated = false;
};

/**
 * Find x in [lo, hi] with f(x) = 0 by bisection.
 *
 * Requires f(lo) and f(hi) to have opposite signs (or either to be
 * within tol of zero). f must be continuous; monotonicity is not
 * required but makes the root unique.
 *
 * @param f        function to solve
 * @param lo       lower bracket
 * @param hi       upper bracket
 * @param tol_x    absolute tolerance on x
 * @param tol_f    absolute tolerance on f(x)
 * @param max_iter iteration cap
 */
RootResult bisect(const std::function<double(double)> &f,
                  double lo, double hi,
                  double tol_x = 1e-12, double tol_f = 1e-9,
                  int max_iter = 200);

/**
 * Solve f(x) = 0 for a *monotonically increasing* f on [lo, hi],
 * clamping to the endpoints when the root lies outside the bracket:
 * returns lo if f(lo) > 0, hi if f(hi) < 0. A clamped solve whose
 * endpoint residual exceeds tol_f reports saturated = true (still
 * converged: the clamp IS the answer for a monotone f, but it is not
 * a root and callers must not treat the residual as small).
 *
 * This is the shape of FastCap's inner solve: total power is
 * increasing in the performance factor D, and budgets above/below the
 * achievable range saturate at the frequency-ladder ends.
 */
RootResult solveMonotone(const std::function<double(double)> &f,
                         double lo, double hi,
                         double tol_x = 1e-12, double tol_f = 1e-9,
                         int max_iter = 200);

/** Clamp helper mirroring std::clamp but tolerant of lo > hi. */
double clampSafe(double v, double lo, double hi);

/** True if |a - b| <= tol * max(1, |a|, |b|). */
bool approxEqual(double a, double b, double tol = 1e-9);

} // namespace fastcap

#endif // FASTCAP_UTIL_MATH_HPP
