#include "sim_bench.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "common/json.hh"
#include "common/stats.hh"
#include "exec/sweep.hh"
#include "exec/thread_pool.hh"
#include "sim/system.hh"
#include "telemetry/metrics_registry.hh"
#include "workload/profiles.hh"

namespace perfbench
{

using prism::JobState;
using prism::MachineConfig;
using prism::RunResult;
using prism::SchemeKind;
using prism::SweepJob;
using prism::SweepOutcome;
using prism::SweepSpec;

namespace
{

/**
 * Set-ups timed before the first sweep and after each one: spread
 * over the run, their median follows the host through the run.
 */
constexpr int kSetupReps = 5;

/** Accesses drawn from each distinct profile's generator. */
constexpr std::uint64_t kGenAccesses = 200'000;

/**
 * The quad-core evaluation machine at the budget of
 * bench/bench_common.hh's machine(4) (scale 1): statistics start
 * after the first third.
 */
MachineConfig
machine(std::uint64_t seed)
{
    MachineConfig m = MachineConfig::forCores(4);
    m.instrBudget = 1'500'000;
    m.warmupInstr = m.instrBudget / 3;
    m.seed = seed;
    return m;
}

/** Supervision as prism_bench applies it by default. */
prism::SupervisorConfig
supervision()
{
    prism::SupervisorConfig s;
    s.enabled = true;
    s.maxAttempts = 3; // --retries 2
    return s;
}

/**
 * The sweep for machine seed @p seed: quad Q1–Q6 x {LRU, PriSM-H,
 * UCP, PIPP}. fig02's 32-core jobs are left out: each holds a 16 MB
 * modelled LLC, so its time follows how much of the host's shared L3
 * and DRAM other machines leave it, and alternating runs of the two
 * halves spread ~5% (quad) against ~15% (32-core).
 */
SweepSpec
fig02Spec(std::uint64_t seed)
{
    SweepSpec spec;
    spec.name = "perfbench_sim_fig02";
    const std::vector<prism::Workload> quad = prism::suites::quadCore();
    for (std::size_t w = 0; w < 6; ++w)
        for (const SchemeKind s : {SchemeKind::Baseline, SchemeKind::PrismH,
                                   SchemeKind::UCP, SchemeKind::PIPP})
            spec.add(machine(seed), quad[w], s);
    return spec;
}

/** Simulated instructions of @p job: (budget + warm-up) x cores. */
std::uint64_t
simulatedInstructions(const SweepJob &job)
{
    return (job.config.instrBudget + job.config.warmupInstr) *
           job.config.numCores;
}

/** Geomean over the mixes of ANTT(PriSM-H) / ANTT(LRU). */
double
prismHNormAntt(const SweepSpec &spec,
               const std::vector<RunResult> &results)
{
    std::map<std::string, double> lru;
    std::map<std::string, double> ph;
    for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
        const SweepJob &job = spec.jobs[i];
        const std::string &key = job.workload.name;
        if (job.scheme == SchemeKind::Baseline)
            lru[key] = results[i].antt();
        else if (job.scheme == SchemeKind::PrismH)
            ph[key] = results[i].antt();
    }
    std::vector<double> ratios;
    for (const auto &[key, antt] : ph)
        ratios.push_back(antt / lru.at(key));
    return prism::geomean(ratios);
}

/**
 * Simulated LLC misses over LLC hits + misses in the measured windows
 * of the jobs under @p scheme, or of every job when nullopt.
 */
double
llcMissRatio(const SweepSpec &spec, const std::vector<RunResult> &results,
             std::optional<SchemeKind> scheme = std::nullopt)
{
    std::uint64_t accesses = 0, misses = 0;
    for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
        if (scheme && spec.jobs[i].scheme != *scheme)
            continue;
        const RunResult &r = results[i];
        for (std::size_t c = 0; c < r.llcHits.size(); ++c) {
            accesses += r.llcHits[c] + r.llcMisses[c];
            misses += r.llcMisses[c];
        }
    }
    return static_cast<double>(misses) /
           static_cast<double>(std::max<std::uint64_t>(1, accesses));
}

/** Every serialised field of @p r, for bit-for-bit comparison. */
std::string
resultFingerprint(const RunResult &r)
{
    std::ostringstream os;
    prism::JsonWriter w(os);
    w.beginObject();
    prism::writeRunResultFields(w, r);
    w.endObject();
    return os.str();
}

/** Whether every job finished Done on its first attempt with LLC
 *  traffic on every core; each failure is reported. */
bool
checkOutcome(const SweepSpec &spec, const SweepOutcome &out,
             Report &report)
{
    bool clean = true;
    for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
        const prism::JobReport &r = out.reports[i];
        const RunResult &res = out.results[i];
        bool ok = r.state == JobState::Done && r.attempts == 1 &&
                  res.llcHits.size() == spec.jobs[i].config.numCores;
        for (std::size_t c = 0; ok && c < res.llcHits.size(); ++c)
            ok = res.llcHits[c] + res.llcMisses[c] > 0;
        report.check(ok, "job " + spec.jobs[i].id +
                             " did not finish Done on its first "
                             "attempt with LLC traffic on every core");
        clean = clean && ok;
    }
    return clean;
}

void
compareResults(const SweepSpec &spec,
               const std::vector<RunResult> &got,
               const std::vector<std::string> &want,
               const std::string &what, Report &report)
{
    for (std::size_t i = 0; i < spec.jobs.size(); ++i)
        report.check(resultFingerprint(got[i]) == want[i],
                     what + ": job " + spec.jobs[i].id +
                         " differs bit for bit");
}

/** Spec building plus one System construction per job. */
double
timeSetup(std::uint64_t seed)
{
    const auto t0 = Clock::now();
    const SweepSpec spec = fig02Spec(seed);
    for (const SweepJob &job : spec.jobs) {
        const prism::System system(job.config, job.workload, nullptr);
    }
    return secondsBetween(t0, Clock::now());
}

void
timedSweeps(std::uint64_t seed, double seconds, Report &report)
{
    std::vector<double> setup;
    const auto timeSetups = [&] {
        for (int i = 0; i < kSetupReps; ++i)
            setup.push_back(timeSetup(seed));
    };
    timeSetups();

    const SweepSpec spec = fig02Spec(seed);
    std::uint64_t instructions = 0;
    for (const SweepJob &job : spec.jobs)
        instructions += simulatedInstructions(job);

    prism::SweepRunner runner(kWorkers);
    runner.setSupervisor(supervision());
    std::vector<double> wall, cpu;
    std::vector<std::string> reference;
    double norm_antt = 0.0;
    double miss_ratio = 0.0;
    const auto start = Clock::now();
    do {
        const double cpu0 = processCpuSeconds();
        const auto t0 = Clock::now();
        const SweepOutcome out = runner.run(spec);
        wall.push_back(secondsBetween(t0, Clock::now()));
        cpu.push_back(processCpuSeconds() - cpu0);

        timeSetups();

        report.attempted(spec.jobs.size());
        if (!checkOutcome(spec, out, report))
            continue;
        if (reference.empty()) {
            for (const RunResult &r : out.results)
                reference.push_back(resultFingerprint(r));
            norm_antt = prismHNormAntt(spec, out.results);
            miss_ratio =
                llcMissRatio(spec, out.results, SchemeKind::PrismH);
        } else {
            compareResults(spec, out.results, reference,
                           "repeated sweep", report);
        }
    } while (secondsBetween(start, Clock::now()) < seconds);

    const double instr = static_cast<double>(instructions);
    const auto [fastest, slowest] =
        std::minmax_element(wall.begin(), wall.end());
    const std::string sweeps =
        "n=" + std::to_string(wall.size()) + " sweeps of " +
        std::to_string(*fastest) + "-" + std::to_string(*slowest) +
        " s, median";
    report.add("setup_s", median(setup), "s",
               "n=" + std::to_string(setup.size()) + " set-ups, median");
    report.add("peak_rss_mb", peakRssMb(), "MB");
    report.add("ops_per_s", instr / median(wall), "1/s",
               sweeps + "; an op is a simulated instruction");
    report.add("cpu_ns_per_op", median(cpu) * 1e9 / instr, "ns", sweeps);
    report.add("prism_h_miss_ratio", miss_ratio, "ratio",
               "simulated LLC, PriSM-H jobs");
    report.detail("prism_h_norm_antt", norm_antt, "ratio",
                  "simulated; paper: 0.821 at 4 cores");
}

void
tracedSweep(std::uint64_t seed, Report &report)
{
    const SweepSpec spec = fig02Spec(seed);
    const double span_ns = calibrateSpanNs(kWorkers);

    // --- stand-alone reference sims, one per distinct benchmark, on
    // a fresh memo, on this thread.
    const auto standalone_t0 = Clock::now();
    auto memo = std::make_shared<prism::StandaloneIpcMemo>();
    double standalone_s = 0.0;
    std::uint64_t standalone_sims = 0;
    {
        std::set<std::string> seen;
        for (const SweepJob &job : spec.jobs) {
            prism::Runner runner(job.config, memo);
            for (const std::string &b : job.workload.benchmarks) {
                if (!seen.insert(b).second)
                    continue;
                const auto t0 = Clock::now();
                runner.standaloneIpc(b);
                standalone_s += secondsBetween(t0, Clock::now());
                ++standalone_sims;
            }
        }
    }
    const double standalone_wall =
        secondsBetween(standalone_t0, Clock::now());

    // --- every job through Runner::run on the warm memo, untraced,
    // fanned over the workload's workers in spec order.
    std::vector<RunResult> untraced(spec.jobs.size());
    std::vector<double> job_s(spec.jobs.size(), 0.0);
    std::vector<Clock::time_point> job_end(spec.jobs.size());
    std::vector<std::thread::id> job_thread(spec.jobs.size());
    const auto jobs_t0 = Clock::now();
    {
        prism::ThreadPool pool(kWorkers);
        for (std::size_t i = 0; i < spec.jobs.size(); ++i)
            pool.submit([&, i] {
                const SweepJob &job = spec.jobs[i];
                const auto t0 = Clock::now();
                prism::Runner runner(job.config, memo);
                untraced[i] =
                    runner.run(job.workload, job.scheme, job.options);
                job_end[i] = Clock::now();
                job_s[i] = secondsBetween(t0, job_end[i]);
                job_thread[i] = std::this_thread::get_id();
            });
        pool.wait();
    }
    // A worker's share of the pass runs from its start to the end of
    // the worker's last job. The idle tail after that is the pool
    // running out of jobs, which exec.worker_idle_s reports.
    std::map<std::thread::id, Clock::time_point> last_end;
    for (std::size_t i = 0; i < spec.jobs.size(); ++i)
        last_end[job_thread[i]] =
            std::max(last_end[job_thread[i]], job_end[i]);
    double jobs_thread_s = 0.0;
    for (const auto &[id, end] : last_end)
        jobs_thread_s += secondsBetween(jobs_t0, end);
    std::vector<std::string> reference;
    for (const RunResult &r : untraced)
        reference.push_back(resultFingerprint(r));

    // --- the sweep again, with the existing spans on.
    prism::telemetry::MetricsRegistry registry;
    SweepSpec traced_spec = spec;
    for (SweepJob &job : traced_spec.jobs) {
        job.options.telemetry.enabled = true;
        job.options.telemetry.metrics = &registry;
    }
    prism::SweepRunner runner(kWorkers);
    runner.setSupervisor(supervision());
    runner.setMetrics(&registry);
    const auto sweep_t0 = Clock::now();
    const SweepOutcome out = runner.run(traced_spec);
    const double sweep_wall = secondsBetween(sweep_t0, Clock::now());
    report.attempted(2 * spec.jobs.size());
    checkOutcome(spec, out, report);
    compareResults(spec, out.results, reference,
                   "traced vs untraced", report);

    // --- generator cost per distinct profile.
    std::uint64_t gen_accesses = 0;
    double gen_s = 0.0;
    {
        std::set<std::string> profiles;
        for (const SweepJob &job : spec.jobs)
            profiles.insert(job.workload.benchmarks.begin(),
                            job.workload.benchmarks.end());
        const prism::ProfileLibrary &lib =
            prism::ProfileLibrary::instance();
        prism::Addr sink = 0;
        for (const std::string &name : profiles) {
            auto gen = prism::ProfileLibrary::makeGenerator(
                lib.get(name), 0, seed);
            const auto t0 = Clock::now();
            for (std::uint64_t i = 0; i < kGenAccesses; ++i)
                sink ^= gen->next();
            gen_s += secondsBetween(t0, Clock::now());
            gen_accesses += kGenAccesses;
        }
        // Keeps the draws observable to the optimiser.
        const volatile prism::Addr keep = sink;
        (void)keep;
    }

    // --- fold.
    const auto spanTotal = [&registry](const std::string &name,
                                       std::uint64_t &calls) {
        calls = registry.counter(name + ".calls").value();
        return static_cast<double>(
                   registry.counter(name + ".wall_ns").value()) *
               1e-9;
    };
    std::uint64_t job_calls = 0, llc_calls = 0, recompute_calls = 0;
    const double job_busy = spanTotal("sweep.job", job_calls);
    const double llc_raw = spanTotal("llc.access", llc_calls);
    const double recompute_raw =
        spanTotal("prism.recompute", recompute_calls);
    const double llc_s =
        llc_raw - static_cast<double>(llc_calls) * span_ns * 1e-9;
    const double recompute_s =
        recompute_raw -
        static_cast<double>(recompute_calls) * span_ns * 1e-9;

    double jobs_s = 0.0;
    std::uint64_t instructions = 0, window_accesses = 0;
    for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
        jobs_s += job_s[i];
        instructions += simulatedInstructions(spec.jobs[i]);
        const RunResult &r = out.results[i];
        for (std::size_t c = 0; c < r.llcHits.size(); ++c)
            window_accesses += r.llcHits[c] + r.llcMisses[c];
    }
    // The span also sees warm-up and post-budget accesses, so the
    // measured-window hits + misses can only be a subset of it.
    report.check(window_accesses <= llc_calls,
                 "LLC hits + misses exceed the accesses the "
                 "llc.access span counted");
    report.check(standalone_sims == out.standaloneSims,
                 "the sweep ran " + std::to_string(out.standaloneSims) +
                     " stand-alone sims, the outside pass " +
                     std::to_string(standalone_sims));
    report.check(job_calls == spec.jobs.size(),
                 "sweep.job span calls differ from the job count");

    // The untraced passes' rows, each timed around its own calls,
    // against the thread time the passes had: one thread for the
    // stand-alone pass, each worker's share of the job pass. Runner
    // set-up in the stand-alone pass, pool start-up and hand-offs are
    // what no row covers.
    const double untraced_work = standalone_s + jobs_s;
    const double unattributed =
        1.0 - untraced_work / (standalone_wall + jobs_thread_s);
    const auto count = [](std::uint64_t n) {
        return static_cast<double>(std::max<std::uint64_t>(1, n));
    };

    // The rows every workload reports, in BENCHMARK.json's order.
    report.add("exec.tasks", static_cast<double>(job_calls), "count",
               "sweep jobs");
    report.add("exec.task_busy_s", job_busy, "s", "sum of sweep.job");
    report.add("exec.worker_idle_s", kWorkers * sweep_wall - job_busy,
               "s", "workers x traced sweep wall - busy");
    report.add("workload.gen_ops", static_cast<double>(gen_accesses),
               "count", "generator draws");
    report.add("workload.gen_ns_per_op",
               gen_s * 1e9 / count(gen_accesses), "ns");
    report.add("cache.accesses", static_cast<double>(llc_calls),
               "count", "llc.access span");
    report.add("cache.access_s", llc_s, "s", "span cost removed");
    report.add("cache.ns_per_access", llc_s * 1e9 / count(llc_calls),
               "ns");
    report.add("cache.miss_ratio", llcMissRatio(spec, out.results),
               "ratio", "simulated, every job");
    report.add("plane.recomputes", static_cast<double>(recompute_calls),
               "count", "prism.recompute span");
    report.add("plane.recompute_s", recompute_s, "s",
               "span cost removed");
    report.add("plane.recompute_us_mean",
               recompute_s * 1e6 / count(recompute_calls), "us");
    report.add("trace.overhead_frac",
               (job_busy - untraced_work) / untraced_work, "ratio",
               "traced job busy vs untraced stand-alone + job time");
    report.add("trace.timer_cost_ns", span_ns, "ns",
               "empty ScopedSpan, " + std::to_string(kWorkers) +
                   " threads on one span");
    report.add("trace.unattributed_frac", unattributed, "ratio");

    // The simulator's own rows.
    report.detail("exec.jobs_retried",
                  static_cast<double>(out.retriedAttempts()), "count");
    report.detail("exec.standalone_sims",
                  static_cast<double>(out.standaloneSims), "count");
    report.detail("sim.standalone_s", standalone_s, "s",
                  "n=" + std::to_string(standalone_sims) + " sims");
    report.detail("sim.job_s", jobs_s, "s", "untraced Runner::run");
    report.detail("sim.ns_per_instr", jobs_s * 1e9 / count(instructions),
                  "ns/instr");
    report.detail("sim.self_s", jobs_s - llc_s - recompute_s, "s",
                  "core step, L1, memory model, generators");
    report.detail("sim.prism_h_norm_antt",
                  prismHNormAntt(spec, out.results), "ratio",
                  "simulated; paper: 0.821 (17.9% gain)");
    report.check(unattributed <= 0.10,
                 "trace.unattributed_frac " +
                     std::to_string(unattributed) +
                     " exceeds 0.10: the layer rows miss wall time");
}

} // namespace

void
runSim(std::uint64_t seed, double seconds, bool trace, Report &report)
{
    if (trace)
        tracedSweep(seed, report);
    else
        timedSweeps(seed, seconds, report);
}

} // namespace perfbench
