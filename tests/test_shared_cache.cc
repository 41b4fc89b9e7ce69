/**
 * @file
 * Tests for the shared LLC: hit/miss behaviour, occupancy
 * bookkeeping, interval machinery and scheme hooks.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "cache/shared_cache.hh"
#include "common/rng.hh"

using namespace prism;

namespace
{

CacheConfig
smallConfig()
{
    CacheConfig c;
    c.sizeBytes = 64 * 1024; // 1024 blocks
    c.ways = 4;              // 256 sets
    c.numCores = 2;
    c.intervalMisses = 512;
    c.shadowSampling = 32;
    return c;
}

/** Address that maps to @p set with a distinguishing tag. */
Addr
addrFor(std::uint32_t set, std::uint64_t tag, std::uint32_t num_sets)
{
    return static_cast<Addr>(tag) * num_sets + set;
}

} // namespace

TEST(SharedCache, GeometryDerivation)
{
    SharedCache c(smallConfig());
    EXPECT_EQ(c.numBlocks(), 1024u);
    EXPECT_EQ(c.numSets(), 256u);
    EXPECT_EQ(c.ways(), 4u);
}

TEST(SharedCache, MissThenHit)
{
    SharedCache c(smallConfig());
    EXPECT_FALSE(c.access(0, 42).hit);
    EXPECT_TRUE(c.access(0, 42).hit);
    EXPECT_EQ(c.totals(0).hits, 1u);
    EXPECT_EQ(c.totals(0).misses, 1u);
}

TEST(SharedCache, OccupancyTracksOwnership)
{
    SharedCache c(smallConfig());
    for (std::uint64_t t = 0; t < 10; ++t)
        c.access(0, addrFor(static_cast<std::uint32_t>(t), t, 256));
    EXPECT_EQ(c.occupancy(0), 10u);
    EXPECT_EQ(c.occupancy(1), 0u);
}

TEST(SharedCache, EvictionTransfersOccupancy)
{
    SharedCache c(smallConfig());
    // Fill one set with core 0 (4 ways), then miss with core 1.
    for (std::uint64_t t = 0; t < 4; ++t)
        c.access(0, addrFor(7, t, 256));
    EXPECT_EQ(c.countInSet(7, 0), 4u);

    const auto res = c.access(1, addrFor(7, 99, 256));
    EXPECT_FALSE(res.hit);
    EXPECT_TRUE(res.evicted);
    EXPECT_EQ(res.evictedOwner, 0u);
    EXPECT_EQ(c.occupancy(0), 3u);
    EXPECT_EQ(c.occupancy(1), 1u);
}

TEST(SharedCache, LruVictimWithoutScheme)
{
    SharedCache c(smallConfig());
    for (std::uint64_t t = 0; t < 4; ++t)
        c.access(0, addrFor(3, t, 256));
    // Touch tag 0 so tag 1 becomes LRU.
    c.access(0, addrFor(3, 0, 256));
    c.access(1, addrFor(3, 50, 256)); // evicts tag 1
    EXPECT_TRUE(c.access(0, addrFor(3, 0, 256)).hit);
    EXPECT_FALSE(c.access(0, addrFor(3, 1, 256)).hit);
}

TEST(SharedCache, IntervalFiresAfterWMisses)
{
    SharedCache c(smallConfig()); // W = 512
    std::uint64_t fired = 0;
    c.setTimingHook([&](IntervalSnapshot &) { ++fired; });
    for (std::uint64_t t = 0; t < 512; ++t)
        c.access(0, addrFor(static_cast<std::uint32_t>(t % 256),
                            1000 + t, 256));
    EXPECT_EQ(fired, 1u);
    EXPECT_EQ(c.intervals(), 1u);
}

TEST(SharedCache, SnapshotContents)
{
    SharedCache c(smallConfig());
    IntervalSnapshot got;
    c.setTimingHook([&](IntervalSnapshot &s) { got = s; });
    for (std::uint64_t t = 0; t < 600; ++t)
        c.access(t % 2, addrFor(static_cast<std::uint32_t>(t % 256),
                                t / 2, 256));
    ASSERT_EQ(got.cores.size(), 2u);
    EXPECT_EQ(got.totalBlocks, 1024u);
    EXPECT_EQ(got.ways, 4u);
    EXPECT_EQ(got.intervalMisses, 512u);
    EXPECT_EQ(got.cores[0].sharedMisses + got.cores[1].sharedMisses,
              512u);
    // Miss fractions sum to one.
    EXPECT_NEAR(got.missFraction(0) + got.missFraction(1), 1.0, 1e-9);
}

TEST(SharedCache, DefaultIntervalIsN)
{
    CacheConfig cfg = smallConfig();
    cfg.intervalMisses = 0;
    SharedCache c(cfg);
    EXPECT_EQ(c.intervalLength(), c.numBlocks());
}

namespace
{

/** Scheme that always evicts the highest valid way. */
struct TopWayScheme : PartitionScheme
{
    std::string name() const override { return "top"; }

    int
    chooseVictim(SharedCache &, CoreId, const SetView &set) override
    {
        ++calls;
        return static_cast<int>(set.ways()) - 1;
    }

    int calls = 0;
};

} // namespace

TEST(SharedCache, SchemeChoosesVictims)
{
    SharedCache c(smallConfig());
    TopWayScheme scheme;
    c.setScheme(&scheme);
    for (std::uint64_t t = 0; t < 4; ++t)
        c.access(0, addrFor(9, t, 256));
    EXPECT_EQ(scheme.calls, 0); // invalid ways filled first
    c.access(1, addrFor(9, 40, 256));
    EXPECT_EQ(scheme.calls, 1);
    // Way 3 (tag 3) was evicted, the rest survive.
    EXPECT_TRUE(c.access(0, addrFor(9, 0, 256)).hit);
    EXPECT_TRUE(c.access(0, addrFor(9, 2, 256)).hit);
    EXPECT_FALSE(c.access(0, addrFor(9, 3, 256)).hit);
}

TEST(SharedCache, OccupancySumsToFilledBlocks)
{
    SharedCache c(smallConfig());
    Rng rng(4);
    for (int i = 0; i < 5000; ++i)
        c.access(static_cast<CoreId>(rng.below(2)), rng.below(4096));
    std::uint64_t total = c.occupancy(0) + c.occupancy(1);
    EXPECT_LE(total, c.numBlocks());
    // After 5000 accesses to 4096 addresses the cache should be
    // nearly full.
    EXPECT_GT(total, c.numBlocks() * 9 / 10);
}

TEST(SharedCache, RejectsBadGeometry)
{
    CacheConfig bad = smallConfig();
    bad.ways = 3; // 1024 blocks not divisible into power-of-two sets
    EXPECT_DEATH(SharedCache{bad}, "");
}

TEST(SharedCache, CorruptedOccupancySaturatesInsteadOfOverflowing)
{
    // An unchecked `occ` fault can leave a counter anywhere; the
    // batched delta fold must clamp to [0, INT64_MAX], not overflow.
    constexpr std::uint64_t kMax = static_cast<std::uint64_t>(
        std::numeric_limits<std::int64_t>::max());
    CacheConfig cfg = smallConfig(); // 1024 blocks, 256 sets x 4 ways
    cfg.intervalMisses = 256;
    SharedCache c(cfg);
    c.setOccupancyFaultHook([&](std::vector<std::uint64_t> &occ,
                                std::uint64_t, std::uint64_t interval) {
        if (interval != 1)
            return false;
        occ[0] = kMax - 10; // inflated near the signed limit
        occ[1] = 0;         // a lost counter for a resident core
        return true;
    });

    // Interval 1: core 1 fills one block per set, then the fault.
    for (std::uint64_t t = 0; t < 256; ++t)
        c.access(1, addrFor(static_cast<std::uint32_t>(t), 1, 256));
    ASSERT_EQ(c.intervals(), 1u);
    EXPECT_EQ(c.occupancy(0), kMax - 10);
    EXPECT_EQ(c.occupancy(1), 0u);

    // Core 0 fills 3 ways of every set: +768 on an inflated counter
    // saturates, mid-interval and across the fold.
    for (std::uint64_t tag = 2; tag < 5; ++tag)
        for (std::uint32_t s = 0; s < 256; ++s) {
            c.access(0, addrFor(s, tag, 256));
            if (s == 20 && tag == 2) {
                EXPECT_EQ(c.occupancy(0), kMax);
            }
        }
    // The fourth way evicts core 1's (least recent) blocks: -256 on a
    // zeroed counter stops at 0 instead of wrapping.
    for (std::uint32_t s = 0; s < 256; ++s)
        c.access(0, addrFor(s, 5, 256));
    EXPECT_GE(c.intervals(), 4u);
    EXPECT_EQ(c.occupancy(0), kMax);
    EXPECT_EQ(c.occupancy(1), 0u);

    EXPECT_EQ(SharedCache::addOccupancyDelta(kMax - 1, 5), kMax);
    EXPECT_EQ(SharedCache::addOccupancyDelta(~std::uint64_t{0}, -1),
              kMax - 1);
    EXPECT_EQ(SharedCache::addOccupancyDelta(3, -5), 0u);
    EXPECT_EQ(SharedCache::addOccupancyDelta(3, 4), 7u);
    EXPECT_EQ(SharedCache::addOccupancyDelta(
                  0, std::numeric_limits<std::int64_t>::min()),
              0u);
}
