#include "util/math.hpp"

#include <algorithm>
#include <cmath>

namespace fastcap {

namespace {

/**
 * Bisection core operating on already-evaluated endpoint residuals.
 * `res.iterations` must arrive pre-seeded with the evaluations the
 * caller spent producing flo/fhi; the core adds one per midpoint.
 * Identical iterate sequence to the historical bisect(): callers that
 * pre-evaluate endpoints get bit-identical roots, just fewer calls.
 */
RootResult
bisectCore(const std::function<double(double)> &f, double lo, double flo,
           double hi, double fhi, double tol_x, double tol_f,
           int max_iter, RootResult res)
{
    if (std::abs(flo) <= tol_f) {
        res.x = lo;
        res.fx = flo;
        res.converged = true;
        return res;
    }
    if (std::abs(fhi) <= tol_f) {
        res.x = hi;
        res.fx = fhi;
        res.converged = true;
        return res;
    }
    if (flo * fhi > 0.0) {
        // No sign change: report the endpoint with the smaller
        // residual, not converged.
        if (std::abs(flo) < std::abs(fhi)) {
            res.x = lo;
            res.fx = flo;
        } else {
            res.x = hi;
            res.fx = fhi;
        }
        return res;
    }

    double mid = 0.5 * (lo + hi);
    double fmid = flo;
    for (int it = 0; it < max_iter; ++it) {
        mid = 0.5 * (lo + hi);
        fmid = f(mid);
        ++res.iterations;
        if (std::abs(fmid) <= tol_f || (hi - lo) * 0.5 <= tol_x) {
            res.x = mid;
            res.fx = fmid;
            res.converged = true;
            return res;
        }
        if (flo * fmid < 0.0) {
            hi = mid;
            fhi = fmid;
        } else {
            lo = mid;
            flo = fmid;
        }
    }
    // Iteration budget exhausted: report the last midpoint actually
    // evaluated (not a fresh one the loop never examined). A
    // non-positive max_iter never evaluates a midpoint; report the
    // bracketing endpoint with the smaller residual instead.
    if (max_iter <= 0) {
        res.x = std::abs(flo) < std::abs(fhi) ? lo : hi;
        res.fx = std::abs(flo) < std::abs(fhi) ? flo : fhi;
    } else {
        res.x = mid;
        res.fx = fmid;
    }
    res.converged = false;
    return res;
}

} // namespace

RootResult
bisect(const std::function<double(double)> &f, double lo, double hi,
       double tol_x, double tol_f, int max_iter)
{
    RootResult res;
    if (lo > hi)
        std::swap(lo, hi);

    const double flo = f(lo);
    res.iterations = 1;
    if (std::abs(flo) <= tol_f) {
        res.x = lo;
        res.fx = flo;
        res.converged = true;
        return res;
    }
    const double fhi = f(hi);
    res.iterations = 2;
    return bisectCore(f, lo, flo, hi, fhi, tol_x, tol_f, max_iter,
                      res);
}

RootResult
solveMonotone(const std::function<double(double)> &f, double lo, double hi,
              double tol_x, double tol_f, int max_iter)
{
    RootResult res;
    if (lo > hi)
        std::swap(lo, hi);

    const double flo = f(lo);
    res.iterations = 1;
    if (flo >= 0.0) {
        // Even the lowest x overshoots: saturate low. Only flag the
        // clamp when the residual is genuinely large — an endpoint
        // sitting on the root within tol_f is a root, not saturation.
        res.x = lo;
        res.fx = flo;
        res.converged = true;
        res.saturated = std::abs(flo) > tol_f;
        return res;
    }
    const double fhi = f(hi);
    res.iterations = 2;
    if (fhi <= 0.0) {
        // Even the highest x undershoots: saturate high.
        res.x = hi;
        res.fx = fhi;
        res.converged = true;
        res.saturated = std::abs(fhi) > tol_f;
        return res;
    }
    // Reuse the endpoint residuals computed above: the bisection sees
    // the exact values a fresh evaluation would produce (f is
    // deterministic), so the root is bit-identical to the historical
    // re-evaluating path while costing two calls less per solve.
    return bisectCore(f, lo, flo, hi, fhi, tol_x, tol_f, max_iter,
                      res);
}

double
clampSafe(double v, double lo, double hi)
{
    if (lo > hi)
        std::swap(lo, hi);
    return std::clamp(v, lo, hi);
}

bool
approxEqual(double a, double b, double tol)
{
    const double scale = std::max({1.0, std::abs(a), std::abs(b)});
    return std::abs(a - b) <= tol * scale;
}

} // namespace fastcap
