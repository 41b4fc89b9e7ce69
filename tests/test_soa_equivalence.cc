/**
 * @file
 * SoA cache metadata vs the AoS reference model.
 *
 * SharedCache runs on per-field arrays (BlockArrays) with an 8-bit
 * tag-signature SWAR scan, batched occupancy deltas and a
 * devirtualised LRU fast path. This suite replays random access
 * streams through SharedCache and through an independent reference
 * cache built over plain per-block `CacheBlock` structs (the AoS
 * layout the header documents as the reference), with textbook
 * policy logic re-implemented from the policy specs
 * (bench/ref_cache.hh, also the baseline of the hot-path gate):
 *
 *  - LRU: explicit recency list, remove-then-insert on every touch;
 *  - Random: random victim among valid ways, MRU insertion;
 *  - RRIP: 2-bit DRRIP with set dueling and aging on victim scans.
 *
 * Every access must agree on hit/miss, eviction, evicted owner and
 * writeback; periodic audits require the full block state (tags,
 * owners, dirty bits, policy state, recency order) and the per-core
 * occupancy counters to be identical. A second test drives a full
 * PriSM configuration and runs the InvariantAuditor's ownership and
 * distribution checks at every interval boundary.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/shared_cache.hh"
#include "common/rng.hh"
#include "fault/invariant_auditor.hh"
#include "prism/alloc_hitmax.hh"
#include "prism/prism_scheme.hh"
#include "ref_cache.hh"

using namespace prism;
using prism::microbench::RefCache;

namespace
{

/** Compare every frame's metadata between SoA cache and reference. */
void
expectStateEqual(SharedCache &cache, const RefCache &ref,
                 std::uint64_t at_access)
{
    const BlockArrays &soa = cache.blockArrays();
    const CacheConfig &cfg = cache.config();
    for (std::size_t i = 0; i < soa.size(); ++i) {
        const CacheBlock &b = ref.block(i);
        ASSERT_EQ(soa.valid[i] != 0, b.valid)
            << "frame " << i << " at access " << at_access;
        if (!b.valid)
            continue;
        ASSERT_EQ(soa.tag[i], b.tag) << "frame " << i;
        ASSERT_EQ(soa.owner[i], b.owner) << "frame " << i;
        ASSERT_EQ(soa.dirty[i] != 0, b.dirty) << "frame " << i;
        if (cfg.repl == ReplKind::RRIP) {
            ASSERT_EQ(soa.rrpv[i], b.rrpv) << "frame " << i;
        }
    }
    for (std::uint32_t s = 0; s < cache.numSets(); ++s) {
        if (cfg.repl != ReplKind::RRIP) {
            ASSERT_EQ(cache.setView(s).state.order, ref.order(s))
                << "set " << s << " recency order at access "
                << at_access;
        }
    }
    for (CoreId c = 0; c < cfg.numCores; ++c)
        ASSERT_EQ(cache.occupancy(c), ref.occupancy(c))
            << "core " << c << " occupancy at access " << at_access;
}

/**
 * Fuzz one configuration: random multi-core access stream with a
 * footprint ~2x the cache, per-access result equality, periodic
 * full-state audits.
 */
void
fuzzAgainstReference(ReplKind repl, std::uint64_t stream_seed)
{
    CacheConfig cfg;
    cfg.sizeBytes = 16ull << 10; // 256 blocks, 32 sets x 8 ways
    cfg.ways = 8;
    cfg.blockBytes = 64;
    cfg.numCores = 4;
    cfg.repl = repl;
    cfg.seed = 1;

    SharedCache cache(cfg);
    RefCache ref(cfg);

    Rng stream(stream_seed);
    const std::uint64_t footprint = 2 * cfg.numBlocks();
    constexpr std::uint64_t kAccesses = 60'000;
    constexpr std::uint64_t kAuditEvery = 4096;

    for (std::uint64_t i = 0; i < kAccesses; ++i) {
        const CoreId core =
            static_cast<CoreId>(stream.below(cfg.numCores));
        // Core-private halves plus some sharing keeps every core
        // resident and exercises cross-core evictions.
        const Addr addr = (static_cast<Addr>(core) << 32) +
                          stream.below(footprint / cfg.numCores);
        const bool store = (addr & 7) == 0;

        const AccessResult got = cache.access(core, addr, store);
        const AccessResult want = ref.access(core, addr, store);
        ASSERT_EQ(got.hit, want.hit) << "access " << i;
        ASSERT_EQ(got.evicted, want.evicted) << "access " << i;
        ASSERT_EQ(got.evictedOwner, want.evictedOwner)
            << "access " << i;
        ASSERT_EQ(got.writeback, want.writeback) << "access " << i;

        if ((i + 1) % kAuditEvery == 0)
            expectStateEqual(cache, ref, i + 1);
    }
    expectStateEqual(cache, ref, kAccesses);
}

} // namespace

TEST(SoaEquivalence, LruMatchesReferenceModel)
{
    for (const std::uint64_t seed : {11u, 22u, 33u})
        fuzzAgainstReference(ReplKind::LRU, seed);
}

TEST(SoaEquivalence, RandomMatchesReferenceModel)
{
    for (const std::uint64_t seed : {44u, 55u})
        fuzzAgainstReference(ReplKind::Random, seed);
}

TEST(SoaEquivalence, RripMatchesReferenceModel)
{
    for (const std::uint64_t seed : {66u, 77u})
        fuzzAgainstReference(ReplKind::RRIP, seed);
}

TEST(SoaEquivalence, PrismIntervalInvariantsHold)
{
    // Full PriSM stack over the SoA cache: at every interval
    // boundary the batched occupancy bookkeeping must agree with the
    // blocks actually resident, and the recomputed eviction
    // distribution must still be a distribution.
    CacheConfig cfg;
    cfg.sizeBytes = 64ull << 10;
    cfg.ways = 16;
    cfg.blockBytes = 64;
    cfg.numCores = 8;
    cfg.intervalMisses = 512;
    cfg.seed = 3;

    SharedCache cache(cfg);
    PrismScheme scheme(cfg.numCores,
                       std::make_unique<HitMaxPolicy>(), 7);
    cache.setScheme(&scheme);

    InvariantAuditor auditor;
    std::uint64_t audited = 0;
    cache.setIntervalObserver(
        [&](const IntervalSnapshot &, std::uint64_t) {
            ++audited;
            const Status own = auditor.checkOwnership(cache);
            EXPECT_TRUE(own.ok()) << own.message();
            const Status dist =
                auditor.checkDistribution(scheme.evictionProbs());
            EXPECT_TRUE(dist.ok()) << dist.message();
        });

    Rng stream(123);
    const std::uint64_t footprint = 2 * cfg.numBlocks();
    for (std::uint64_t i = 0; i < 200'000; ++i) {
        const CoreId core =
            static_cast<CoreId>(stream.below(cfg.numCores));
        const Addr addr = (static_cast<Addr>(core) << 32) +
                          stream.below(footprint / cfg.numCores);
        cache.access(core, addr, (addr & 7) == 0);
    }

    EXPECT_GE(cache.intervals(), 10u);
    EXPECT_EQ(audited, cache.intervals());
    EXPECT_EQ(auditor.violations(), 0u);
    EXPECT_GT(scheme.replacements(), 0u);
}
