/**
 * @file
 * Shared plumbing for the figure-reproduction harnesses.
 *
 * Every figure in the registry (figures.hh) regenerates one
 * table/figure of the paper. Run lengths are scaled for laptop
 * execution (see EXPERIMENTS.md); two environment variables widen
 * the sweep; a malformed value of either is a usage error (exit 2)
 * that prism_bench reports before any output:
 *
 *   PRISM_BENCH_SCALE      multiply instruction budgets (default 1;
 *                          0 also means 1)
 *   PRISM_BENCH_WORKLOADS  workloads per suite (default 6; 0 = all)
 */

#ifndef PRISM_BENCH_COMMON_HH
#define PRISM_BENCH_COMMON_HH

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/prism_assert.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "sim/runner.hh"
#include "workload/suites.hh"

namespace prism::bench
{

/**
 * Parse PRISM_BENCH_SCALE and PRISM_BENCH_WORKLOADS into @p scale
 * and @p cap (defaults when unset). prism_bench calls this in its
 * argument stage, so a malformed value is a usage error before any
 * output.
 */
inline Status
benchEnvironment(double &scale, unsigned &cap)
{
    scale = 1.0;
    cap = 6;
    if (const char *env = std::getenv("PRISM_BENCH_SCALE"))
        if (Status st = cli::parseDouble("PRISM_BENCH_SCALE", env,
                                         scale, 0.0, 1e12);
            !st.ok())
            return st;
    if (scale <= 0)
        scale = 1.0;
    if (const char *env = std::getenv("PRISM_BENCH_WORKLOADS"))
        return cli::parseUnsigned("PRISM_BENCH_WORKLOADS", env, cap);
    return Status();
}

inline double
scaleFactor()
{
    double scale = 1.0;
    unsigned cap = 0;
    if (const Status st = benchEnvironment(scale, cap); !st.ok())
        fatal(st.message());
    return scale;
}

inline unsigned
workloadCap()
{
    double scale = 1.0;
    unsigned cap = 0;
    if (const Status st = benchEnvironment(scale, cap); !st.ok())
        fatal(st.message());
    return cap;
}

/** The evaluation machine for @p cores with bench-scaled budgets. */
inline MachineConfig
machine(unsigned cores)
{
    MachineConfig m = MachineConfig::forCores(cores);
    const double s = scaleFactor();
    // Larger machines get shorter per-core budgets, mirroring the
    // paper's 500M (4/8 cores) vs 200M (16/32 cores) instructions.
    const double budget = cores <= 8 ? 1'500'000 : 1'000'000;
    m.instrBudget = static_cast<std::uint64_t>(budget * s);
    m.warmupInstr = m.instrBudget / 3;
    return m;
}

/** The workload suite for @p cores, capped by PRISM_BENCH_WORKLOADS. */
inline std::vector<Workload>
suite(unsigned cores)
{
    auto all = suites::forCoreCount(cores);
    const unsigned cap = workloadCap();
    if (cap > 0 && all.size() > cap)
        all.resize(cap);
    return all;
}

/** Geomean of ANTT over @p results normalised to @p baseline. */
inline double
geomeanNormAntt(const std::vector<RunResult> &results,
                const std::vector<RunResult> &baseline)
{
    std::vector<double> ratios;
    for (std::size_t i = 0; i < results.size(); ++i)
        ratios.push_back(results[i].antt() / baseline[i].antt());
    return geomean(ratios);
}

/** Print the standard harness header. */
inline void
header(const std::string &what, const std::string &paper_expectation)
{
    std::cout << "PriSM reproduction — " << what << "\n"
              << "paper: " << paper_expectation << "\n"
              << "scale: budgets x" << scaleFactor() << ", "
              << (workloadCap() ? std::to_string(workloadCap())
                                : std::string("all"))
              << " workloads per suite\n";
}

} // namespace prism::bench

#endif // PRISM_BENCH_COMMON_HH
