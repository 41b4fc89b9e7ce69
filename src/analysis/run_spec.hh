/**
 * @file
 * RunSpec: parse prism_sim's run flags into a runnable simulation
 * description.
 *
 * This is the one parser of the run vocabulary (--cores, --workload,
 * --mix, --scheme, --repl, --instr, --warmup, --interval, --seed,
 * --bits, --qos-frac, --faults, --checked). prism_sim hands it every
 * flag that is not an output or listing flag, and
 * `prism_doctor --run "--workload Q7 --scheme PriSM-H"` hands it the
 * quoted string, so a run command copies between the two tools
 * verbatim and both reject the same inputs.
 */

#ifndef PRISM_ANALYSIS_RUN_SPEC_HH
#define PRISM_ANALYSIS_RUN_SPEC_HH

#include <string>
#include <string_view>
#include <vector>

#include "common/status.hh"
#include "sim/runner.hh"

namespace prism::analysis
{

/** A fully-resolved single-run request. */
struct RunSpec
{
    MachineConfig machine;
    Workload workload;
    SchemeKind scheme = SchemeKind::PrismH;
    SchemeOptions options;
};

/**
 * Parse @p tokens (flags and their values, in order) into @p out. The
 * machine is the paper configuration for the resolved core count
 * with default run lengths of 1.5M instructions and 500k warm-up.
 * Numbers, names, the fault spec, the core count against the mix and
 * the machine are all checked here.
 */
Status parseRunSpec(const std::vector<std::string> &tokens,
                    RunSpec &out);

/** parseRunSpec() over the whitespace-separated flags in @p text. */
Status parseRunSpec(std::string_view text, RunSpec &out);

} // namespace prism::analysis

#endif // PRISM_ANALYSIS_RUN_SPEC_HH
