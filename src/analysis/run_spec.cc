#include "analysis/run_spec.hh"

#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/fixed_point.hh"
#include "fault/fault_injector.hh"

namespace prism::analysis
{

namespace
{

std::vector<std::string>
tokenize(std::string_view text)
{
    std::vector<std::string> out;
    std::istringstream in{std::string(text)};
    std::string tok;
    while (in >> tok)
        out.push_back(tok);
    return out;
}

std::vector<std::string>
splitMix(const std::string &mix)
{
    std::vector<std::string> out;
    std::istringstream in(mix);
    std::string item;
    while (std::getline(in, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

} // namespace

Status
parseRunSpec(std::string_view text, RunSpec &out)
{
    return parseRunSpec(tokenize(text), out);
}

Status
parseRunSpec(const std::vector<std::string> &tokens, RunSpec &out)
{
    out = RunSpec();

    unsigned cores = 4;
    bool cores_set = false;
    std::string workload_name, mix;
    std::string scheme_name = "PriSM-H", repl_name = "LRU";
    std::uint64_t instr = 1'500'000, warmup = 500'000, interval = 0;
    std::uint64_t seed = 0x5EED0001ULL;
    unsigned bits = 0;
    double qos_frac = 0.8;

    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const std::string &flag = tokens[i];
        if (flag == "--checked") {
            out.options.checked = true;
            continue;
        }
        const std::string v =
            i + 1 < tokens.size() ? tokens[i + 1] : "";
        Status st;
        if (flag == "--cores") {
            st = cli::parseUnsigned(flag, v, cores);
            cores_set = true;
        } else if (flag == "--workload") {
            workload_name = v;
        } else if (flag == "--mix") {
            mix = v;
        } else if (flag == "--scheme") {
            scheme_name = v;
        } else if (flag == "--repl") {
            repl_name = v;
        } else if (flag == "--instr") {
            st = cli::parseUnsigned(flag, v, instr);
        } else if (flag == "--warmup") {
            st = cli::parseUnsigned(flag, v, warmup);
        } else if (flag == "--interval") {
            st = cli::parseUnsigned(flag, v, interval);
        } else if (flag == "--seed") {
            st = cli::parseUnsigned(flag, v, seed);
        } else if (flag == "--bits") {
            // 0 selects float probabilities.
            st = cli::parseUnsigned(flag, v, bits, 0,
                                    FixedPointCodec::kMaxBits);
        } else if (flag == "--qos-frac") {
            st = cli::parseDouble(flag, v, qos_frac, 0.0, 1.0);
        } else if (flag == "--faults") {
            out.options.faultSpec = v;
        } else {
            return Status::error("unknown run flag '" + flag + "'");
        }
        if (++i >= tokens.size())
            return Status::error("missing value for " + flag);
        if (!st.ok())
            return st;
    }

    if (!schemeFromName(scheme_name, out.scheme))
        return Status::error("unknown scheme '" + scheme_name + "'");
    ReplKind repl;
    if (!replFromName(repl_name, repl))
        return Status::error("unknown replacement policy '" +
                             repl_name + "'");
    if (!out.options.faultSpec.empty()) {
        std::vector<FaultClause> clauses;
        if (const Status st =
                parseFaultSpec(out.options.faultSpec, clauses);
            !st.ok())
            return st;
    }

    if (!mix.empty()) {
        out.workload.name = "custom";
        out.workload.benchmarks = splitMix(mix);
        if (out.workload.benchmarks.empty())
            return Status::error("--mix lists no benchmarks");
    } else if (!workload_name.empty()) {
        if (!suites::find(workload_name, out.workload))
            return Status::error("unknown workload '" +
                                 workload_name + "'");
    } else {
        if (cores != 4 && cores != 8 && cores != 16 && cores != 32)
            return Status::error(
                "--cores must be 4, 8, 16 or 32 (got " +
                std::to_string(cores) + ")");
        out.workload = suites::forCoreCount(cores).front();
    }
    // An explicit --cores must agree with the mix it runs.
    const std::size_t n = out.workload.benchmarks.size();
    if (cores_set && n != cores)
        return Status::error(
            (mix.empty() ? "--workload " + workload_name + " has "
                         : std::string("--mix lists ")) +
            std::to_string(n) + " benchmarks but --cores asked for " +
            std::to_string(cores));
    cores = static_cast<unsigned>(n);

    out.machine = MachineConfig::forCores(cores);
    out.machine.instrBudget = instr;
    out.machine.warmupInstr = warmup;
    if (interval)
        out.machine.intervalMisses = interval;
    out.machine.seed = seed;
    out.machine.repl = repl;

    if (const auto errors = out.machine.validate();
        !errors.empty()) {
        std::string joined = "invalid machine configuration:";
        for (const std::string &e : errors)
            joined += " " + e + ";";
        return Status::error(joined);
    }

    out.options.probBits = bits;
    out.options.qosTargetFrac = qos_frac;
    return Status();
}

} // namespace prism::analysis
