/**
 * @file
 * The FastCap policy: Algorithm 1 plus the ladder mapping of its
 * line 16 ("set each core (memory) frequency to the closest frequency
 * to z̄_i/z_i (s̄_b/s_b) after normalization").
 */

#ifndef FASTCAP_CORE_FASTCAP_POLICY_HPP
#define FASTCAP_CORE_FASTCAP_POLICY_HPP

#include <string>

#include "core/policy.hpp"
#include "core/solver.hpp"

namespace fastcap {

/**
 * OS-level FastCap governor decision logic.
 *
 * Epoch-to-epoch the governor warm-starts the solver from its
 * previous decision: the memory-level search probes last epoch's
 * level and its neighbours first (result-identical to a cold solve —
 * see WarmStart). reset() drops the hint, so back-to-back experiments
 * stay independent.
 */
class FastCapPolicy : public CappingPolicy
{
  public:
    explicit FastCapPolicy(SolverOptions opts = SolverOptions{})
        : _opts(opts)
    {}

    std::string name() const override { return "FastCap"; }

    PolicyDecision decide(const PolicyInputs &inputs) override;

    void reset() override { _opts.warmStart = WarmStart{}; }

  private:
    SolverOptions _opts;
    /** Budget of the epoch that produced the warm-start hint. */
    Watts _lastBudget = 0.0;
};

/**
 * CPU-only variant (Section IV-B): runs the FastCap core solve but
 * pins the memory at its maximum frequency — isolating the value of
 * memory DVFS. This models all prior capping work that lacks memory
 * DVFS.
 */
class CpuOnlyPolicy : public CappingPolicy
{
  public:
    explicit CpuOnlyPolicy(SolverOptions opts = SolverOptions{})
        : _opts(opts)
    {}

    std::string name() const override { return "CPU-only"; }
    bool usesMemoryDvfs() const override { return false; }

    PolicyDecision decide(const PolicyInputs &inputs) override;

  private:
    SolverOptions _opts;
};

/**
 * No capping: everything at maximum frequency. The performance
 * baseline every result normalizes against.
 */
class UncappedPolicy : public CappingPolicy
{
  public:
    std::string name() const override { return "Uncapped"; }
    PolicyDecision decide(const PolicyInputs &inputs) override;
};

/** Map solver ratios onto ladder indices (Algorithm 1, line 16). */
PolicyDecision mapToLadders(const PolicyInputs &inputs,
                            const InnerSolution &sol,
                            std::size_t mem_index, int evaluations);

} // namespace fastcap

#endif // FASTCAP_CORE_FASTCAP_POLICY_HPP
