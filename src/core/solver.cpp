#include "core/solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>

#include "util/logging.hpp"
#include "util/math.hpp"

namespace fastcap {

FastCapSolver::FastCapSolver(const PolicyInputs &inputs,
                             SolverOptions opts)
    : _in(inputs), _opts(std::move(opts)), _queuing(inputs)
{
    if (_in.cores.empty())
        fatal("FastCapSolver: no cores in inputs");
    if (_in.memRatios.empty())
        fatal("FastCapSolver: empty memory ladder");
    if (_in.budget <= 0.0)
        fatal("FastCapSolver: non-positive budget");

    // Same summation order as PolicyInputs::staticPower(), so the
    // hoisted constant is bit-identical to a fresh evaluation.
    _staticPower = _in.staticPower();
    _minCoreRatio = _in.minCoreRatio();

    buildClasses();
}

void
FastCapSolver::buildClasses()
{
    const std::size_t n = _in.cores.size();
    _classOf.resize(n);

    // Exact-bit class key: cores are interchangeable for the solve
    // iff every model parameter the inner loop reads is the same
    // double, including the controller-access row the queuing model
    // weights R by.
    std::map<std::vector<std::uint64_t>, std::uint32_t> ids;
    std::vector<std::uint64_t> key;
    for (std::size_t i = 0; i < n; ++i) {
        const CoreModel &c = _in.cores[i];
        key.clear();
        key.reserve(5 + _in.accessProbs[i].size());
        key.push_back(doubleBits(c.zbar));
        key.push_back(doubleBits(c.cache));
        key.push_back(doubleBits(c.pi));
        key.push_back(doubleBits(c.alpha));
        key.push_back(doubleBits(c.pStatic));
        for (double p : _in.accessProbs[i])
            key.push_back(doubleBits(p));

        const auto [it, inserted] = ids.emplace(
            key, static_cast<std::uint32_t>(_classRep.size()));
        if (inserted) {
            _classRep.push_back(i);
            _classMinT.push_back(_queuing.minTurnaround(i));
            _classCache.push_back(c.cache);
            _classZbar.push_back(c.zbar);
            _classPi.push_back(c.pi);
            _classAlpha.push_back(c.alpha);
            _classPStatic.push_back(c.pStatic);
        }
        _classOf[i] = it->second;
    }

    const std::size_t k = _classRep.size();
    _classR.resize(k);
    _classRatio.resize(k);
    _classPowTerm.resize(k);
}

// --- Equivalence-class hot path ------------------------------------

void
FastCapSolver::classResponseTimes(double x_b)
{
    // One queuing evaluation per class: cores of a class share their
    // access-probability row, so R_i(x_b) is the same arithmetic.
    for (std::size_t c = 0; c < _classRep.size(); ++c)
        _classR[c] = _queuing.responseTime(_classRep[c], x_b);
}

double
FastCapSolver::classMaxD() const
{
    // min over classes == min over cores: members share the bound.
    double d_max = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < _classRep.size(); ++c) {
        const double bound = _classMinT[c] /
            (_classZbar[c] + _classCache[c] + _classR[c]);
        d_max = std::min(d_max, bound);
    }
    return d_max;
}

void
FastCapSolver::classTermAt(double d, std::uint32_t c) const
{
    const Seconds z = _classMinT[c] / d - _classCache[c] - _classR[c];
    double x = 1.0;
    if (z > _classZbar[c])
        x = std::max(_classZbar[c] / z, _minCoreRatio);
    _classRatio[c] = x;
    _classPowTerm[c] = _classPi[c] * std::pow(x, _classAlpha[c]);
}

void
FastCapSolver::classTermsAtD(double d) const
{
    // The only transcendental work per probe: one pow per class.
    for (std::uint32_t c = 0;
         c < static_cast<std::uint32_t>(_classRep.size()); ++c)
        classTermAt(d, c);
}

void
FastCapSolver::classTermsAtDFor(
    double d, const std::vector<std::uint32_t> &subset) const
{
    // Restricted to one socket's classes; entries are bit-equal to a
    // full recompute because both paths run the same classTermAt.
    for (const std::uint32_t c : subset)
        classTermAt(d, c);
}

const std::vector<std::uint32_t> &
FastCapSolver::socketClasses(std::size_t socket_idx) const
{
    if (_socketClasses.size() != _opts.socketBudgets.size())
        _socketClasses.assign(_opts.socketBudgets.size(), {});
    std::vector<std::uint32_t> &classes = _socketClasses[socket_idx];
    if (classes.empty()) {
        // A validated socket holds >= 1 core, so an empty list means
        // "not built yet", never "no classes".
        const SocketBudget &socket = _opts.socketBudgets[socket_idx];
        std::vector<bool> present(_classRep.size(), false);
        const std::size_t end = socket.firstCore + socket.numCores;
        for (std::size_t i = socket.firstCore; i < end; ++i)
            present[_classOf[i]] = true;
        for (std::uint32_t c = 0;
             c < static_cast<std::uint32_t>(present.size()); ++c)
            if (present[c])
                classes.push_back(c);
    }
    return classes;
}

Watts
FastCapSolver::classPowerAtD(double d, double mem_term) const
{
    classTermsAtD(d);
    // Accumulate in original core order: the sum — and with it every
    // bisection iterate — is bit-identical to the per-core reference.
    Watts p = _staticPower + mem_term;
    for (const std::uint32_t c : _classOf)
        p += _classPowTerm[c];
    return p;
}

Watts
FastCapSolver::classSocketPowerAtD(std::size_t socket_idx,
                                   const SocketBudget &socket,
                                   double d) const
{
    classTermsAtDFor(d, socketClasses(socket_idx));
    // Per-core accumulation in original index order, exactly as the
    // per-core reference sums — the partition above only limits
    // which pow terms get (re)computed, never the addition sequence.
    Watts p = 0.0;
    const std::size_t end = socket.firstCore + socket.numCores;
    for (std::size_t i = socket.firstCore; i < end; ++i) {
        const std::uint32_t c = _classOf[i];
        p += _classPowTerm[c] + _classPStatic[c];
    }
    return p;
}

// --- Inner solve ----------------------------------------------------

namespace {

/** Saturation flags of the binding root solve, by residual sign. */
void
applySaturation(InnerSolution &sol, const RootResult &binding)
{
    sol.saturatedLow = binding.saturated && binding.fx > 0.0;
    sol.saturatedHigh = binding.saturated && binding.fx < 0.0;
}

} // namespace

InnerSolution
FastCapSolver::solveAtMemRatio(double x_b)
{
    ++_evaluations;

    classResponseTimes(x_b);

    const double d_hi = classMaxD();
    const double d_lo = d_hi * 1e-4;
    const double mem_term =
        _in.memory.pm * std::pow(x_b, _in.memory.beta);

    const auto residual = [&](double d) {
        return classPowerAtD(d, mem_term) - _in.budget;
    };

    const RootResult root =
        solveMonotone(residual, d_lo, d_hi, d_hi * _opts.dTolerance,
                      _in.budget * 1e-9, 200);

    InnerSolution sol;
    sol.d = root.x;
    sol.rootIterations = root.iterations;
    applySaturation(sol, root);
    for (std::size_t s = 0; s < _opts.socketBudgets.size(); ++s) {
        const SocketBudget &socket = _opts.socketBudgets[s];
        if (socket.numCores == 0 ||
            socket.firstCore + socket.numCores > _in.cores.size())
            fatal("FastCapSolver: socket budget range [%zu, %zu) out "
                  "of bounds", socket.firstCore,
                  socket.firstCore + socket.numCores);
        const auto socket_residual = [&](double d) {
            return classSocketPowerAtD(s, socket, d) - socket.budget;
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
    sol.coreRatios.resize(_in.cores.size());
    classTermsAtD(sol.d);
    Watts p = _staticPower + mem_term;
    for (std::size_t i = 0; i < _in.cores.size(); ++i) {
        const std::uint32_t c = _classOf[i];
        p += _classPowTerm[c];
        sol.coreRatios[i] = _classRatio[c];
    }
    sol.predictedPower = p;
    finishSolution(sol);
    return sol;
}

void
FastCapSolver::finishSolution(InnerSolution &sol) const
{
    // Tolerance matches the bisection's, so a solution sitting right
    // on the budget is not misreported as infeasible.
    sol.budgetFeasible =
        sol.predictedPower <= _in.budget * (1.0 + 1e-3);
    for (std::size_t s = 0; s < _opts.socketBudgets.size(); ++s) {
        const SocketBudget &socket = _opts.socketBudgets[s];
        if (classSocketPowerAtD(s, socket, sol.d) >
            socket.budget * (1.0 + 1e-3))
            sol.budgetFeasible = false;
    }
    if (!sol.budgetFeasible) {
        // Budget below this memory level's floor power. Rank such
        // points below every feasible one, ordered by how far over
        // budget the floor sits: the memory-level search then walks
        // toward cheaper levels instead of chasing the meaningless
        // saturated-D placeholder.
        sol.d = -(sol.predictedPower - _in.budget) / _in.budget;
    }
}

InnerSolution
FastCapSolver::solveAtMemIndex(std::size_t mem_index)
{
    return solveAtMemRatio(_in.memRatios.at(mem_index));
}

SolveResult
FastCapSolver::solve()
{
    const std::size_t m = _in.memRatios.size();
    SolveResult result;

    // Restrict the search to the queuing model's validity domain:
    // below this index the measured arrival rate would saturate the
    // bus and Eq. 1's extrapolation collapses.
    bool clamped = false;
    const std::size_t floor_idx = minMemIndexForUtilisation(
        _in, _opts.maxBusUtilisation, &clamped);
    result.utilisationClamped = clamped;
    if (clamped)
        warn("FastCapSolver: no memory level keeps bus utilisation "
             "below %.2f at the measured demand; solving at the top "
             "of the ladder, outside the queuing model's validity "
             "domain", _opts.maxBusUtilisation);

    if (m - floor_idx <= 3) {
        // Small admissible ladder: scanning every level costs no more
        // than the binary search's probes.
        InnerSolution best;
        std::size_t best_idx = floor_idx;
        bool first = true;
        for (std::size_t idx = floor_idx; idx < m; ++idx) {
            InnerSolution s = solveAtMemIndex(idx);
            if (first || s.d > best.d) {
                first = false;
                best = std::move(s);
                best_idx = idx;
            }
        }
        result.best = std::move(best);
        result.memIndex = best_idx;
        result.evaluations = _evaluations;
        return result;
    }

    // Algorithm 1: binary search over the (unimodal, by convexity of
    // the underlying problem) D(m) curve. Memoize evaluations so
    // neighbour probes are not repeated.
    std::vector<InnerSolution> memo(m);
    std::vector<bool> have(m, false);
    const auto eval = [&](std::size_t idx) -> const InnerSolution & {
        if (!have[idx]) {
            memo[idx] = solveAtMemIndex(idx);
            have[idx] = true;
        }
        return memo[idx];
    };

    // Warm start: probe the previous epoch's level and its
    // neighbours first. Confirming a local optimum there picks the
    // same level as the cold search (the D(m) curve is unimodal and
    // the inner solve at a level does not depend on the search
    // trajectory), at 2-3 inner solves instead of ~2 log2 M.
    if (_opts.warmStart.valid) {
        const std::size_t h = std::clamp(_opts.warmStart.memIndex,
                                         floor_idx, m - 1);
        const double d_h = eval(h).d;
        const double d_up =
            (h + 1 <= m - 1) ? eval(h + 1).d
                             : -std::numeric_limits<double>::infinity();
        const double d_down =
            (h >= floor_idx + 1)
                ? eval(h - 1).d
                : -std::numeric_limits<double>::infinity();
        if (d_h >= d_up && d_h >= d_down) {
            result.best = eval(h);
            result.memIndex = h;
            result.evaluations = _evaluations;
            return result;
        }
    }

    std::size_t lo = floor_idx;
    std::size_t hi = m - 1;
    std::size_t mid = (lo + hi) / 2;
    while (lo < hi) {
        mid = (lo + hi) / 2;
        const double d_mid = eval(mid).d;
        const double d_up =
            (mid + 1 <= hi) ? eval(mid + 1).d
                            : -std::numeric_limits<double>::infinity();
        const double d_down =
            (mid >= lo + 1) ? eval(mid - 1).d
                            : -std::numeric_limits<double>::infinity();

        if (d_up > d_mid) {
            lo = mid + 1;       // ascending to the right
        } else if (d_down > d_mid) {
            hi = mid - 1;       // ascending to the left
        } else {
            lo = hi = mid;      // local (= global, unimodal) optimum
        }
    }
    mid = lo;

    result.best = eval(mid);
    result.memIndex = mid;
    result.evaluations = _evaluations;
    return result;
}

} // namespace fastcap
