#include "sim/config.hpp"

#include <cmath>

#include "util/logging.hpp"

namespace fastcap {

SimConfig
SimConfig::defaultConfig(int cores)
{
    SimConfig cfg;
    cfg.numCores = cores;

    // Table II: 4 DDR3 channels for 16/32 cores, 8 channels for 64.
    // Beyond the paper's largest configuration the channel count
    // scales with the core count (8 per 64 cores), keeping per-core
    // bandwidth at the 64-core level — the machine a 256/1024-core
    // capping run models grows its memory system with its cores.
    const int channels = (cores > 64) ? 8 * ((cores + 63) / 64)
        : (cores >= 64)               ? 8
                                      : 4;
    cfg.banksPerController = 8 * channels;

    // The default single "common bus" aggregates all channels, so its
    // per-line transfer time shrinks with channel count: 6 DDR bus
    // cycles of occupancy for one 64-byte line on one channel.
    cfg.busBurstCycles = 6.0 / static_cast<double>(channels);

    // Memory power scales with channel count (reference: 4 channels).
    const double mem_scale = static_cast<double>(channels) / 4.0;
    cfg.memPower.interfaceMax *= mem_scale;
    cfg.memPower.mcMax *= mem_scale;
    cfg.memPower.staticPower *= mem_scale;

    cfg.validate();
    return cfg;
}

void
SimConfig::validate() const
{
    // Guards are written so that NaN fails them: every comparison
    // with NaN is false.
    if (numCores < 1)
        fatal("SimConfig: numCores must be >= 1 (got %d)", numCores);
    if (numControllers < 1)
        fatal("SimConfig: numControllers must be >= 1 (got %d)",
              numControllers);
    if (banksPerController < 1)
        fatal("SimConfig: banksPerController must be >= 1 (got %d)",
              banksPerController);
    if (!(busBurstCycles > 0.0))
        fatal("SimConfig: busBurstCycles must be positive");
    if (!(epochLength > 0.0 && profileWindow > 0.0 && execWindow > 0.0))
        fatal("SimConfig: epoch/window lengths must be positive");
    if (profileWindow + execWindow > epochLength)
        fatal("SimConfig: sampling windows (%g s) exceed the epoch "
              "(%g s)", profileWindow + execWindow, epochLength);
    if (!(skewHotFraction > 0.0 && skewHotFraction <= 1.0))
        fatal("SimConfig: skewHotFraction must be in (0, 1]");
    if (!(rowHitRate >= 0.0 && rowHitRate <= 1.0))
        fatal("SimConfig: rowHitRate must be in [0, 1]");
    if (!(bankRowHitTime > 0.0 && bankRowMissTime >= bankRowHitTime))
        fatal("SimConfig: need 0 < bankRowHitTime <= bankRowMissTime");
    if (!(std::isfinite(l2Time) && l2Time >= 0.0))
        fatal("SimConfig: l2Time must be finite and >= 0");
    if (oooMaxOutstanding < 1)
        fatal("SimConfig: oooMaxOutstanding must be >= 1");
    if (!(corePower.dynMax > 0.0 && corePower.staticPower >= 0.0))
        fatal("SimConfig: core power parameters must be positive");
    if (!(corePower.stallFactor >= 0.0 && corePower.stallFactor <= 1.0))
        fatal("SimConfig: stallFactor must be in [0, 1]");
}

} // namespace fastcap
