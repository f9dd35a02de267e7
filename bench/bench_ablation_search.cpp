/**
 * @file
 * Ablation: Algorithm 1's binary search over memory levels vs an
 * exhaustive scan. Convexity makes D(m) unimodal, so the O(log M)
 * search should find the same optimum with ~a third of the inner
 * evaluations at M = 10 (and far fewer at larger M).
 */

#include <cstdio>

#include "bench_inputs.hpp"
#include "common.hpp"
#include "core/solver.hpp"
#include "solver_oracle.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace fastcap;

int
main()
{
    benchutil::banner("bench_ablation_search",
                      "Algorithm 1 search validation",
                      "synthetic epochs: binary vs exhaustive memory "
                      "search, 200 random inputs per (N, M)");

    AsciiTable table({"N", "M", "mismatches / trials",
                      "mean evals (binary)", "mean evals (full)",
                      "max |dD|"});
    CsvWriter csv;
    csv.header({"n", "m", "mismatches", "trials", "evals_binary",
                "evals_full", "max_d_gap"});

    for (const std::size_t n : {8u, 32u}) {
        for (const std::size_t m : {10u, 40u, 160u}) {
            int mismatches = 0;
            double evals_fast = 0.0;
            double evals_full = 0.0;
            double max_gap = 0.0;
            const int trials = 200;
            for (int t = 0; t < trials; ++t) {
                PolicyInputs in = benchutil::syntheticInputs(
                    n, m, 10, 1000 + static_cast<std::uint64_t>(t));

                FastCapSolver fast(in);
                const SolveResult rf = fast.solve();
                const SolveResult rx = oracle::exhaustiveSolve(in);

                evals_fast += rf.evaluations;
                evals_full += rx.evaluations;
                const double gap = std::abs(rf.best.d - rx.best.d);
                max_gap = std::max(max_gap, gap);
                if (gap > 1e-6 * std::max(1.0, std::abs(rx.best.d)))
                    ++mismatches;
            }
            table.addRow(
                {std::to_string(n), std::to_string(m),
                 std::to_string(mismatches) + " / " +
                     std::to_string(trials),
                 AsciiTable::num(evals_fast / trials, 1),
                 AsciiTable::num(evals_full / trials, 1),
                 AsciiTable::num(max_gap, 8)});
            csv.rowNumeric({static_cast<double>(n),
                            static_cast<double>(m),
                            static_cast<double>(mismatches),
                            static_cast<double>(trials),
                            evals_fast / trials, evals_full / trials,
                            max_gap});
        }
    }

    std::printf("\n");
    table.print();
    std::printf("\nExpected shape: zero (or near-zero) mismatches; "
                "binary-search evaluations grow ~log M while the "
                "exhaustive scan grows linearly.\n");
    return 0;
}
