/**
 * @file
 * fastcap_perfbench: the end-to-end benchmark program.
 *
 *   fastcap_perfbench --workload paper64|scale1024|rack|governor
 *                     --seed N --seconds S --trace 0|1
 *                     [--smoke] [--commit ID]
 *
 * Prints a metric table (name, value, unit, sample count) and, as the
 * last line, one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. perfbench/run.py builds this binary and runs it; see
 * perfbench/README.md for the workloads and metrics.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "fastcap_perfbench: %s\n"
                 "usage: fastcap_perfbench --workload "
                 "paper64|scale1024|rack|governor --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--commit ID]\n",
                 msg);
    std::exit(2);
}

bool
parseUnsigned(const char *s, unsigned long long &out)
{
    char *end = nullptr;
    if (*s == '\0' || *s == '-')
        return false;
    out = std::strtoull(s, &end, 10);
    return *end == '\0';
}

perfbench::Options
parse(int argc, char **argv)
{
    perfbench::Options o;
    bool have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--smoke") {
            o.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        unsigned long long n = 0;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            if (!parseUnsigned(v, n))
                usage("--seed takes a non-negative integer");
            o.seed = n;
        } else if (a == "--seconds") {
            char *end = nullptr;
            o.seconds = std::strtod(v, &end);
            if (*end != '\0' || !(o.seconds >= 0.0) || o.seconds > 3600.0)
                usage("--seconds takes a number in [0, 3600]");
            have_seconds = true;
        } else if (a == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("--trace takes 0 or 1");
            o.trace = v[0] == '1';
        } else if (a == "--commit") {
            o.commit = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (o.workload != "paper64" && o.workload != "scale1024" &&
        o.workload != "rack" && o.workload != "governor")
        usage("--workload must be paper64, scale1024, rack or governor");
    if (!have_seconds && !o.smoke)
        usage("--seconds is required");
    // Smoke runs make one repetition of each kind, however long.
    if (o.smoke)
        o.seconds = 0.0;
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const perfbench::Options opts = parse(argc, argv);
#if !defined(NDEBUG)
    const bool optimized = false;
#else
    const bool optimized =
        std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#endif
    if (!opts.trace && !opts.smoke && !optimized) {
        std::fprintf(stderr,
                     "fastcap_perfbench: refusing to report end-to-end "
                     "numbers from a %s build; configure with "
                     "-DCMAKE_BUILD_TYPE=Release\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }
    try {
        perfbench::Report report(opts);
        if (opts.workload == "rack")
            perfbench::runRack(opts, report);
        else if (opts.workload == "governor")
            perfbench::runGovernor(opts, report);
        else
            perfbench::runMachine(opts, report);
        return report.print();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fastcap_perfbench: %s\n", e.what());
        return 1;
    }
}
