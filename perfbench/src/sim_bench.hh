/**
 * @file
 * The simulator workload: a fig02-shaped sweep through the public
 * SweepRunner/Runner API, supervised as prism_bench runs it.
 */

#ifndef PERFBENCH_SIM_BENCH_HH
#define PERFBENCH_SIM_BENCH_HH

#include <cstdint>

#include "report.hh"

namespace perfbench
{

/** Run the sim-fig02 workload into @p report. */
void runSim(std::uint64_t seed, double seconds, bool trace,
            Report &report);

} // namespace perfbench

#endif // PERFBENCH_SIM_BENCH_HH
