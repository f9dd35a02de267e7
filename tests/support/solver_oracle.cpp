#include "solver_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/queuing_model.hpp"
#include "util/logging.hpp"
#include "util/math.hpp"

namespace fastcap {
namespace oracle {

namespace {

/**
 * The per-core solver: T̄_i cached per core, everything else
 * recomputed per probe. The arithmetic order below is the reference
 * the class hot path reproduces; do not reorder it.
 */
class Reference
{
  public:
    Reference(const PolicyInputs &in, const SolverOptions &opts)
        : _in(in), _opts(opts), _queuing(in)
    {
        if (_in.cores.empty())
            fatal("FastCapSolver: no cores in inputs");
        if (_in.memRatios.empty())
            fatal("FastCapSolver: empty memory ladder");
        if (_in.budget <= 0.0)
            fatal("FastCapSolver: non-positive budget");
        _minTurnaround.reserve(_in.cores.size());
        for (std::size_t i = 0; i < _in.cores.size(); ++i)
            _minTurnaround.push_back(_queuing.minTurnaround(i));
    }

    InnerSolution solveAtMemRatio(double x_b);

    int evaluations() const { return _evaluations; }

  private:
    double maxD(const std::vector<Seconds> &r_at_xb) const;
    double coreRatioAtD(std::size_t i, double d,
                        const std::vector<Seconds> &r_at_xb) const;
    Watts powerAtD(double d, double x_b,
                   const std::vector<Seconds> &r_at_xb,
                   std::vector<double> *ratios_out) const;
    Watts socketPowerAtD(const SocketBudget &socket, double d,
                         const std::vector<Seconds> &r_at_xb) const;
    void finishSolution(InnerSolution &sol,
                        const std::vector<Seconds> &r_at_xb) const;

    const PolicyInputs &_in;
    const SolverOptions &_opts;
    QueuingModel _queuing;
    std::vector<Seconds> _minTurnaround; //!< T̄_i cache (per core)
    int _evaluations = 0;
};

double
Reference::maxD(const std::vector<Seconds> &r_at_xb) const
{
    // D may rise until the fastest-constrained core hits z_i = z̄_i
    // (constraint 7): D <= T̄_i / (z̄_i + c_i + R_i(x_b)).
    double d_max = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < _in.cores.size(); ++i) {
        const CoreModel &c = _in.cores[i];
        const double bound =
            _minTurnaround[i] / (c.zbar + c.cache + r_at_xb[i]);
        d_max = std::min(d_max, bound);
    }
    return d_max;
}

double
Reference::coreRatioAtD(std::size_t i, double d,
                        const std::vector<Seconds> &r_at_xb) const
{
    const CoreModel &c = _in.cores[i];
    // Eq. 8: z_i = T̄_i / D - c_i - R_i(x_b).
    const Seconds z = _minTurnaround[i] / d - c.cache - r_at_xb[i];
    if (z <= c.zbar) {
        // At or beyond the top of the ladder (D near maxD).
        return 1.0;
    }
    // Frequency-ladder floor: cores that would need to run below
    // f_min are pinned there; their power saturates, which preserves
    // monotonicity of power in D.
    return std::max(c.zbar / z, _in.minCoreRatio());
}

Watts
Reference::powerAtD(double d, double x_b,
                    const std::vector<Seconds> &r_at_xb,
                    std::vector<double> *ratios_out) const
{
    Watts p = _in.staticPower() +
        _in.memory.pm * std::pow(x_b, _in.memory.beta);

    for (std::size_t i = 0; i < _in.cores.size(); ++i) {
        const CoreModel &c = _in.cores[i];
        const double x = coreRatioAtD(i, d, r_at_xb);
        p += c.pi * std::pow(x, c.alpha);
        if (ratios_out)
            (*ratios_out)[i] = x;
    }
    return p;
}

Watts
Reference::socketPowerAtD(const SocketBudget &socket, double d,
                          const std::vector<Seconds> &r_at_xb) const
{
    Watts p = 0.0;
    const std::size_t end = socket.firstCore + socket.numCores;
    for (std::size_t i = socket.firstCore; i < end; ++i) {
        const CoreModel &c = _in.cores[i];
        const double x = coreRatioAtD(i, d, r_at_xb);
        p += c.pi * std::pow(x, c.alpha) + c.pStatic;
    }
    return p;
}

/** Saturation flags of the binding root solve, by residual sign. */
void
applySaturation(InnerSolution &sol, const RootResult &binding)
{
    sol.saturatedLow = binding.saturated && binding.fx > 0.0;
    sol.saturatedHigh = binding.saturated && binding.fx < 0.0;
}

InnerSolution
Reference::solveAtMemRatio(double x_b)
{
    ++_evaluations;

    std::vector<Seconds> r_at_xb(_in.cores.size());
    for (std::size_t i = 0; i < _in.cores.size(); ++i)
        r_at_xb[i] = _queuing.responseTime(i, x_b);

    const double d_hi = maxD(r_at_xb);
    // Below d_lo every core is pinned at f_min and power is constant;
    // the root (if any) lies above it.
    const double d_lo = d_hi * 1e-4;

    const auto residual = [&](double d) {
        return powerAtD(d, x_b, r_at_xb, nullptr) - _in.budget;
    };

    const RootResult root = solveMonotone(
        residual, d_lo, d_hi, d_hi * _opts.dTolerance,
        _in.budget * 1e-9, 200);

    // Per-processor constraints (6'): each socket's own monotone
    // solve bounds D as well; the system runs at the tightest one so
    // degradation stays equal across all applications.
    InnerSolution sol;
    sol.d = root.x;
    sol.rootIterations = root.iterations;
    applySaturation(sol, root);
    for (const SocketBudget &socket : _opts.socketBudgets) {
        if (socket.numCores == 0 ||
            socket.firstCore + socket.numCores > _in.cores.size())
            fatal("FastCapSolver: socket budget range [%zu, %zu) out "
                  "of bounds", socket.firstCore,
                  socket.firstCore + socket.numCores);
        const auto socket_residual = [&](double d) {
            return socketPowerAtD(socket, d, r_at_xb) - socket.budget;
        };
        const RootResult socket_root = solveMonotone(
            socket_residual, d_lo, d_hi, d_hi * _opts.dTolerance,
            std::max(socket.budget, 1.0) * 1e-9, 200);
        sol.rootIterations += socket_root.iterations;
        if (socket_root.x < sol.d) {
            sol.d = socket_root.x;
            applySaturation(sol, socket_root);
        }
    }

    sol.memRatio = x_b;
    sol.coreRatios.assign(_in.cores.size(), 1.0);
    sol.predictedPower = powerAtD(sol.d, x_b, r_at_xb, &sol.coreRatios);
    finishSolution(sol, r_at_xb);
    return sol;
}

void
Reference::finishSolution(InnerSolution &sol,
                          const std::vector<Seconds> &r_at_xb) const
{
    // Tolerance matches the bisection's, so a solution sitting right
    // on the budget is not misreported as infeasible.
    sol.budgetFeasible =
        sol.predictedPower <= _in.budget * (1.0 + 1e-3);
    for (const SocketBudget &socket : _opts.socketBudgets) {
        const Watts sp = socketPowerAtD(socket, sol.d, r_at_xb);
        if (sp > socket.budget * (1.0 + 1e-3))
            sol.budgetFeasible = false;
    }
    if (!sol.budgetFeasible) {
        // Budget below this memory level's floor power: rank such
        // points below every feasible one, ordered by how far over
        // budget the floor sits.
        sol.d = -(sol.predictedPower - _in.budget) / _in.budget;
    }
}

/** Admissible levels start here (the bus-utilisation guard). */
std::size_t
floorIndex(const PolicyInputs &in, const SolverOptions &opts,
           SolveResult &result)
{
    bool clamped = false;
    const std::size_t floor_idx =
        minMemIndexForUtilisation(in, opts.maxBusUtilisation, &clamped);
    result.utilisationClamped = clamped;
    return floor_idx;
}

/** Scan levels [floor_idx, m); the first level with the best D wins. */
template <typename SolveAt>
void
scanLevels(std::size_t floor_idx, std::size_t m, const SolveAt &solve_at,
           SolveResult &result)
{
    InnerSolution best;
    std::size_t best_idx = floor_idx;
    bool first = true;
    for (std::size_t idx = floor_idx; idx < m; ++idx) {
        InnerSolution s = solve_at(idx);
        if (first || s.d > best.d) {
            first = false;
            best = std::move(s);
            best_idx = idx;
        }
    }
    result.best = std::move(best);
    result.memIndex = best_idx;
}

} // namespace

InnerSolution
referenceSolveAtMemRatio(const PolicyInputs &in, const SolverOptions &opts,
                         double x_b)
{
    return Reference(in, opts).solveAtMemRatio(x_b);
}

SolveResult
referenceSolve(const PolicyInputs &in, const SolverOptions &opts)
{
    Reference ref(in, opts);
    const std::size_t m = in.memRatios.size();
    SolveResult result;
    const std::size_t floor_idx = floorIndex(in, opts, result);
    const auto solve_at = [&](std::size_t idx) {
        return ref.solveAtMemRatio(in.memRatios.at(idx));
    };

    if (m - floor_idx <= 3) {
        scanLevels(floor_idx, m, solve_at, result);
        result.evaluations = ref.evaluations();
        return result;
    }

    // Algorithm 1, cold: binary search over the unimodal D(m) curve,
    // memoising levels so neighbour probes are not repeated.
    std::vector<InnerSolution> memo(m);
    std::vector<bool> have(m, false);
    const auto eval = [&](std::size_t idx) -> const InnerSolution & {
        if (!have[idx]) {
            memo[idx] = solve_at(idx);
            have[idx] = true;
        }
        return memo[idx];
    };

    std::size_t lo = floor_idx;
    std::size_t hi = m - 1;
    while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        const double d_mid = eval(mid).d;
        const double d_up =
            (mid + 1 <= hi) ? eval(mid + 1).d
                            : -std::numeric_limits<double>::infinity();
        const double d_down =
            (mid >= lo + 1) ? eval(mid - 1).d
                            : -std::numeric_limits<double>::infinity();
        if (d_up > d_mid)
            lo = mid + 1;
        else if (d_down > d_mid)
            hi = mid - 1;
        else
            lo = hi = mid;
    }

    result.best = eval(lo);
    result.memIndex = lo;
    result.evaluations = ref.evaluations();
    return result;
}

SolveResult
exhaustiveSolve(const PolicyInputs &in, const SolverOptions &opts,
                Inner inner)
{
    SolveResult result;
    const std::size_t floor_idx = floorIndex(in, opts, result);
    const std::size_t m = in.memRatios.size();
    if (inner == Inner::Reference) {
        Reference ref(in, opts);
        const auto solve_at = [&](std::size_t idx) {
            return ref.solveAtMemRatio(in.memRatios.at(idx));
        };
        scanLevels(floor_idx, m, solve_at, result);
        result.evaluations = ref.evaluations();
    } else {
        FastCapSolver solver(in, opts);
        const auto solve_at = [&](std::size_t idx) {
            return solver.solveAtMemIndex(idx);
        };
        scanLevels(floor_idx, m, solve_at, result);
        result.evaluations = solver.evaluations();
    }
    return result;
}

Watts
modelPower(const PolicyInputs &in, const std::vector<double> &core_ratios,
           double x_b)
{
    Watts p = in.staticPower();
    for (std::size_t i = 0; i < in.cores.size(); ++i) {
        const CoreModel &c = in.cores[i];
        p += c.pi * std::pow(core_ratios[i], c.alpha);
    }
    p += in.memory.pm * std::pow(x_b, in.memory.beta);
    return p;
}

LinearFit
fitLinear(const std::vector<double> &xs, const std::vector<double> &ys)
{
    LinearFit fit;
    const size_t n = std::min(xs.size(), ys.size());
    if (n < 2)
        return fit;

    double sx = 0.0, sy = 0.0;
    for (size_t i = 0; i < n; ++i) {
        sx += xs[i];
        sy += ys[i];
    }
    const double mx = sx / static_cast<double>(n);
    const double my = sy / static_cast<double>(n);

    double sxx = 0.0, sxy = 0.0, syy = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const double dx = xs[i] - mx;
        const double dy = ys[i] - my;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    if (sxx <= 0.0)
        return fit;

    fit.slope = sxy / sxx;
    fit.intercept = my - fit.slope * mx;
    fit.r2 = (syy > 0.0) ? (sxy * sxy) / (sxx * syy) : 1.0;
    fit.valid = true;
    return fit;
}

PowerLawFit
fitPowerLaw(const std::vector<double> &xs, const std::vector<double> &ys)
{
    PowerLawFit fit;
    const size_t n = std::min(xs.size(), ys.size());

    std::vector<double> lx, ly;
    lx.reserve(n);
    ly.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        if (xs[i] > 0.0 && ys[i] > 0.0) {
            lx.push_back(std::log(xs[i]));
            ly.push_back(std::log(ys[i]));
        }
    }
    const LinearFit lin = fitLinear(lx, ly);
    if (!lin.valid)
        return fit;

    fit.scale = std::exp(lin.intercept);
    fit.exponent = lin.slope;
    fit.r2 = lin.r2;
    fit.valid = true;
    return fit;
}

} // namespace oracle
} // namespace fastcap
