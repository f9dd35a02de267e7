#include "core/model_fitter.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"
#include "util/math.hpp"

namespace fastcap {

PowerLawTracker::PowerLawTracker(double default_exponent,
                                 std::size_t history,
                                 double min_exponent,
                                 double max_exponent)
    : _defaultExponent(default_exponent), _historyLimit(history),
      _minExponent(min_exponent), _maxExponent(max_exponent)
{
    if (history < 2)
        fatal("PowerLawTracker: history must be >= 2");
    _model.exponent = default_exponent;
}

void
PowerLawTracker::accumulate(const Sample &s, double sign)
{
    _sumLx += sign * s.lx;
    _sumLy += sign * s.ly;
    _sumLxx += sign * s.lx * s.lx;
    _sumLxy += sign * s.lx * s.ly;
}

void
PowerLawTracker::observe(double ratio, Watts dyn_power)
{
    if (ratio <= 0.0 || ratio > 1.0 + 1e-9) {
        warn("PowerLawTracker: ignoring out-of-range ratio %g", ratio);
        return;
    }
    if (dyn_power <= 0.0) {
        // A zero/negative dynamic-power measurement carries no
        // information for a multiplicative model; skip it.
        return;
    }

    auto same = std::find_if(_history.begin(), _history.end(),
                             [&](const Sample &s) {
                                 return approxEqual(s.ratio, ratio, 1e-6);
                             });
    if (same != _history.end()) {
        // Refresh: smooth toward the new measurement so stale samples
        // at the same frequency do not fossilise. Rank-1 moment swap:
        // the old log-power contributions leave, the smoothed ones
        // enter; lx is unchanged.
        accumulate(*same, -1.0);
        same->power = 0.5 * same->power + 0.5 * dyn_power;
        same->ly = std::log(same->power);
        accumulate(*same, +1.0);
    } else {
        Sample s{ratio, dyn_power, std::log(ratio),
                 std::log(dyn_power)};
        accumulate(s, +1.0);
        _history.push_back(s);
        while (_history.size() > _historyLimit) {
            accumulate(_history.front(), -1.0);
            _history.pop_front();
        }
    }
    refit();
}

void
PowerLawTracker::refit()
{
    if (_history.empty())
        return;

    if (_history.size() == 1) {
        // Bootstrap: solve Eq. 2 for the scale with the default
        // exponent.
        const Sample &s = _history.front();
        _model.scale = s.power / std::pow(s.ratio, _defaultExponent);
        _model.exponent = _defaultExponent;
        _model.fromFit = false;
        return;
    }

    // O(1) log-log least squares from the running moments: the same
    // normal equations the batch fit solves, with centered statistics
    // recovered from the raw sums instead of a two-pass sweep.
    const double n = static_cast<double>(_history.size());
    const double mx = _sumLx / n;
    const double my = _sumLy / n;
    const double sxx = _sumLxx - n * mx * mx;
    const double sxy = _sumLxy - n * mx * my;
    if (!(sxx > 0.0)) {
        // Degenerate x-spread (cannot happen with the distinct-ratio
        // history invariant, but rounding is not a proof): fall back
        // to bootstrap on the freshest sample, as the batch fit does
        // for all-equal ratios.
        const Sample &s = _history.back();
        _model.scale = s.power / std::pow(s.ratio, _defaultExponent);
        _model.exponent = _defaultExponent;
        _model.fromFit = false;
        return;
    }
    const double slope = sxy / sxx;
    const double intercept = my - slope * mx;

    _model.exponent = std::clamp(slope, _minExponent, _maxExponent);
    if (approxEqual(_model.exponent, slope)) {
        _model.scale = std::exp(intercept);
    } else {
        // Exponent clamped: re-anchor the scale on the freshest
        // sample so predictions stay close to recent reality.
        const Sample &s = _history.back();
        _model.scale = s.power / std::pow(s.ratio, _model.exponent);
    }
    _model.fromFit = true;
}

ModelFitter::ModelFitter(std::size_t num_cores, double core_exponent,
                         double mem_exponent, double min_exponent,
                         double max_exponent)
    : _memory(mem_exponent, 3, min_exponent, max_exponent)
{
    _cores.reserve(num_cores);
    for (std::size_t i = 0; i < num_cores; ++i)
        _cores.emplace_back(core_exponent, 3, min_exponent,
                            max_exponent);
}

void
ModelFitter::observeCore(std::size_t core, double ratio, Watts dyn_power)
{
    _cores.at(core).observe(ratio, dyn_power);
}

void
ModelFitter::observeMemory(double ratio, Watts dyn_power)
{
    _memory.observe(ratio, dyn_power);
}

FittedModel
ModelFitter::core(std::size_t core) const
{
    return _cores.at(core).model();
}

} // namespace fastcap
