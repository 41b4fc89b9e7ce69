/**
 * @file
 * perfbench: one benchmark run of one workload.
 *
 *   perfbench --workload <sim-fig02|serve-read>
 *             --seed <n> --seconds <s> --trace <0|1>
 *
 * With --trace 0 the run measures the end-to-end metrics for about
 * --seconds seconds with tracing off; with --trace 1 it makes the
 * traced run that gives the per-layer metrics. Either way it checks
 * the program's outputs, prints one line per metric and per detail
 * and, last, one JSON object {correct, attempted, failed, metrics}
 * whose metrics every workload reports alike. Usage errors exit 2
 * without a result.
 */

#include <charconv>
#include <iostream>
#include <string>
#include <string_view>

#include "report.hh"
#include "serve_bench.hh"
#include "sim_bench.hh"

namespace
{

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload "
                 "<sim-fig02|serve-read> --seed <n> "
                 "--seconds <s> --trace <0|1>\n";
    return 2;
}

bool
parseU64(std::string_view text, std::uint64_t &out)
{
    const auto res =
        std::from_chars(text.data(), text.data() + text.size(), out);
    return res.ec == std::errc() && res.ptr == text.data() + text.size();
}

bool
parseSeconds(std::string_view text, double &out)
{
    const auto res =
        std::from_chars(text.data(), text.data() + text.size(), out);
    return res.ec == std::errc() &&
           res.ptr == text.data() + text.size() && out > 0.0 &&
           out <= 3600.0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    std::uint64_t trace = 2;
    bool have_seed = false;

    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + std::string(arg));
        const std::string_view value = argv[++i];
        if (arg == "--workload")
            workload = value;
        else if (arg == "--seed") {
            if (!parseU64(value, seed))
                return usage("bad --seed '" + std::string(value) + "'");
            have_seed = true;
        } else if (arg == "--seconds") {
            if (!parseSeconds(value, seconds))
                return usage("bad --seconds '" + std::string(value) +
                             "'");
        } else if (arg == "--trace") {
            if (!parseU64(value, trace) || trace > 1)
                return usage("bad --trace '" + std::string(value) + "'");
        } else {
            return usage("unknown argument " + std::string(arg));
        }
    }
    if (workload != "sim-fig02" && workload != "serve-read")
        return usage("unknown --workload '" + workload + "'");
    if (!have_seed || seconds <= 0.0 || trace > 1)
        return usage("--seed, --seconds and --trace are required");

    std::cout << "perfbench: workload " << workload << ", seed " << seed
              << ", " << seconds << " s, trace " << trace << ", "
              << perfbench::kWorkers << " workers\n";
    perfbench::Report report;
    if (workload == "sim-fig02")
        perfbench::runSim(seed, seconds, trace == 1, report);
    else
        perfbench::runServe(seed, seconds, trace == 1, report);
    report.print(std::cout);
    return 0;
}
