/**
 * @file
 * Hot-path microbenchmark: access throughput, Core-Selection
 * draws/sec and recompute latency, emitted as a `prism-bench-v1`
 * document (BENCH_hotpath.json) so prism_doctor --compare can hold
 * the deterministic fields against tests/golden/BENCH_hotpath.json.
 *
 *   bench_micro_hotpath [--out DIR] [--no-timing] [--gate] [--smoke]
 *
 * --no-timing   contract fields only; byte-reproducible on any
 *               machine (what the golden is seeded from)
 * --gate        enforce the same-binary A/B thresholds of
 *               micro_common.hh: exit 1 when the SoA cache runs
 *               below minAccessSpeedupVsReference x the AoS
 *               reference model's accesses/sec, or the sampler A/B
 *               falls below minSamplerSpeedup32
 * --smoke       tiny contract + 50 ms timing loops: exercises every
 *               code path in seconds (the `perf`-label ctest smoke)
 */

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "common/json.hh"
#include "micro_common.hh"

using namespace prism;
using namespace prism::microbench;

namespace
{

struct Options
{
    std::string out = ".";
    bool timing = true;
    bool gate = false;
    bool smoke = false;
};

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " [--out DIR] [--no-timing] [--gate] [--smoke]\n";
    return 2;
}

void
writeContractJob(JsonWriter &w, const char *id, std::uint32_t cores,
                 const MixBench &b, const ContractResult &r,
                 std::uint64_t accesses)
{
    w.beginObject();
    w.kv("id", id);
    w.key("config");
    w.beginObject();
    w.kv("cores", cores);
    w.kv("llc_bytes", static_cast<std::uint64_t>(b.cfg.sizeBytes));
    w.kv("llc_ways", b.cfg.ways);
    w.kv("accesses", accesses);
    w.endObject();
    w.key("result");
    w.beginObject();
    w.kv("checksum", r.checksum);
    w.kv("hits", r.hits);
    w.kv("misses", r.misses);
    w.kv("intervals", r.intervals);
    w.endObject();
    w.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc)
            opt.out = argv[++i];
        else if (arg == "--no-timing")
            opt.timing = false;
        else if (arg == "--gate")
            opt.gate = true;
        else if (arg == "--smoke")
            opt.smoke = true;
        else
            return usage(argv[0]);
    }
    if (opt.gate && !opt.timing) {
        std::cerr << "--gate requires timing\n";
        return 2;
    }

    const std::uint64_t accesses =
        opt.smoke ? 50'000 : contractAccesses;
    const double secs = opt.smoke ? 0.05 : 1.0;

    std::ofstream os(opt.out + "/BENCH_hotpath.json",
                     std::ios::binary);
    if (!os.is_open()) {
        std::cerr << "cannot write " << opt.out
                  << "/BENCH_hotpath.json\n";
        return 1;
    }
    JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "prism-bench-v1");
    w.kv("sweep", opt.smoke ? "hotpath-smoke" : "hotpath");
    w.key("jobs");
    w.beginArray();

    // --- deterministic contract ----------------------------------
    bool ok = true;
    MixBench mix4(4);
    const ContractResult c4 = runContract(mix4, accesses);
    writeContractJob(w, "hotpath/contract_mix4", 4, mix4, c4,
                     accesses);

    MixBench mix32(32);
    const ContractResult c32 = runContract(mix32, accesses);
    writeContractJob(w, "hotpath/contract_mix32", 32, mix32, c32,
                     accesses);

    // --- sampler equivalence (+ draws/sec A/B when timed) --------
    {
        const auto e = skewedDistribution(32);
        AliasSampler sampler;
        sampler.build(e);
        bool identical = true;
        Rng rng(7);
        for (int i = 0; i < 100'000; ++i) {
            const double u = rng.uniform();
            if (sampler.sample(u) !=
                AliasSampler::inverseCdfReference(e, u))
                identical = false;
        }
        double speedup = 0.0;
        SamplerRates rates;
        if (opt.timing) {
            rates = measureSampler(32, secs);
            identical = identical && rates.drawsIdentical;
            speedup = rates.aliasPerSec / rates.inversePerSec;
        }
        ok = ok && identical;

        w.beginObject();
        w.kv("id", "hotpath/sampler_32core");
        w.key("config");
        w.beginObject();
        w.kv("cores", 32);
        w.kv("buckets", sampler.buckets());
        w.endObject();
        w.key("result");
        w.beginObject();
        w.kv("draws_identical", identical ? 1 : 0);
        if (opt.timing) {
            w.kv("alias_draws_per_sec", rates.aliasPerSec);
            w.kv("inverse_cdf_draws_per_sec", rates.inversePerSec);
            w.kv("sampler_speedup", speedup);
            if (opt.gate) {
                const bool pass = speedup >= minSamplerSpeedup32;
                w.kv("gate_ok", pass ? 1 : 0);
                if (!pass) {
                    std::cerr << "GATE: sampler speedup " << speedup
                              << "x < " << minSamplerSpeedup32
                              << "x\n";
                    ok = false;
                }
            }
        }
        w.endObject();
        w.endObject();
    }

    // --- timed throughput -----------------------------------------
    if (opt.timing) {
        // The gate: SoA against the AoS reference model, same binary,
        // after a warm-up as long as the contract phase.
        const ReferenceRates ab =
            measureReferenceAccess(32, 2 * secs, accesses);
        const double speedup = ab.soaPerSec / ab.referencePerSec;
        ok = ok && ab.resultsIdentical;

        w.beginObject();
        w.kv("id", "hotpath/soa_vs_reference_32core");
        w.key("config");
        w.beginObject();
        w.kv("cores", 32);
        w.kv("repl", "LRU");
        w.endObject();
        w.key("result");
        w.beginObject();
        w.kv("results_identical", ab.resultsIdentical ? 1 : 0);
        w.kv("soa_accesses_per_sec", ab.soaPerSec);
        w.kv("reference_accesses_per_sec", ab.referencePerSec);
        w.kv("speedup_vs_reference", speedup);
        if (opt.gate) {
            const bool pass =
                opt.smoke || speedup >= minAccessSpeedupVsReference;
            w.kv("gate_min_speedup", minAccessSpeedupVsReference);
            w.kv("gate_ok", pass ? 1 : 0);
            if (!pass) {
                std::cerr << "GATE: SoA accesses/sec " << ab.soaPerSec
                          << " (" << speedup
                          << "x the AoS reference) < "
                          << minAccessSpeedupVsReference << "x\n";
                ok = false;
            }
        }
        w.endObject();
        w.endObject();

        // The PriSM-HitMax mixes end to end, reported only.
        for (MixBench *mix : {&mix32, &mix4}) {
            const double rate = measureAccessRate(*mix, secs);
            w.beginObject();
            w.kv("id", mix->cores == 32 ? "hotpath/throughput_mix32"
                                        : "hotpath/throughput_mix4");
            w.key("config");
            w.beginObject();
            w.kv("cores", mix->cores);
            w.endObject();
            w.key("result");
            w.beginObject();
            w.kv("accesses_per_sec", rate);
            w.endObject();
            w.endObject();
        }

        const double ns = measureRecomputeNs(32, secs);
        w.beginObject();
        w.kv("id", "hotpath/recompute_32core");
        w.key("config");
        w.beginObject();
        w.kv("cores", 32);
        w.endObject();
        w.key("result");
        w.beginObject();
        w.kv("recompute_ns", ns);
        w.endObject();
        w.endObject();
    }

    w.endArray();
    w.endObject();
    os << "\n";
    os.close();

    if (!ok) {
        std::cerr << "bench_micro_hotpath: FAILED\n";
        return 1;
    }
    return 0;
}
