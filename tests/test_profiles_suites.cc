/**
 * @file
 * Tests for the benchmark profile library and workload suites.
 */

#include <gtest/gtest.h>

#include "workload/profiles.hh"
#include "workload/suites.hh"

using namespace prism;

TEST(Profiles, LibraryHasAllCategories)
{
    const auto &lib = ProfileLibrary::instance();
    EXPECT_FALSE(lib.namesIn(BenchCategory::Friendly).empty());
    EXPECT_FALSE(lib.namesIn(BenchCategory::Streaming).empty());
    EXPECT_FALSE(lib.namesIn(BenchCategory::Intensive).empty());
    EXPECT_FALSE(lib.namesIn(BenchCategory::Insensitive).empty());
}

TEST(Profiles, PaperBenchmarksPresent)
{
    const auto &lib = ProfileLibrary::instance();
    // Benchmarks the paper's Section 5 names explicitly.
    for (const char *name :
         {"179.art", "471.omnetpp", "300.twolf", "175.vpr",
          "168.wupwise", "410.bwaves", "470.lbm", "186.crafty"}) {
        EXPECT_EQ(lib.get(name).name, name);
    }
}

TEST(Profiles, ParametersAreSane)
{
    const auto &lib = ProfileLibrary::instance();
    for (const auto &name : lib.names()) {
        const auto &p = lib.get(name);
        EXPECT_GT(p.cpiIdeal, 0.0) << name;
        EXPECT_GT(p.memRatio, 0.0) << name;
        EXPECT_LE(p.memRatio, 1.0) << name;
        EXPECT_GE(p.mlp, 1.0) << name;
        EXPECT_GT(p.locality.workingSetBlocks, 0u) << name;
        EXPECT_GT(p.locality.theta, 0.0) << name;
        if (p.locality.loopFrac > 0) {
            EXPECT_GT(p.locality.loopBlocks, 0u) << name;
        }
    }
}

TEST(Profiles, StreamersHaveHighColdFraction)
{
    const auto &lib = ProfileLibrary::instance();
    for (const auto &name : lib.namesIn(BenchCategory::Streaming))
        EXPECT_GE(lib.get(name).locality.coldFrac, 0.5) << name;
}

TEST(Profiles, GeneratorFactoryWorks)
{
    const auto &lib = ProfileLibrary::instance();
    auto gen = ProfileLibrary::makeGenerator(lib.get("179.art"), 0, 1);
    ASSERT_NE(gen, nullptr);
    // Produces addresses in the right stream.
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(gen->next() >> 40, 0u);
    auto gen5 = ProfileLibrary::makeGenerator(lib.get("179.art"), 5, 1);
    EXPECT_EQ(gen5->next() >> 40, 5u);
}

TEST(Suites, PaperSuiteSizes)
{
    // The paper: 21 quad, 16 eight-core, 20 sixteen-core, 14
    // thirty-two-core workloads.
    EXPECT_EQ(suites::quadCore().size(), 21u);
    EXPECT_EQ(suites::eightCore().size(), 16u);
    EXPECT_EQ(suites::sixteenCore().size(), 20u);
    EXPECT_EQ(suites::thirtyTwoCore().size(), 14u);
}

TEST(Suites, WorkloadsMatchCoreCount)
{
    for (unsigned cores : {4u, 8u, 16u, 32u})
        for (const auto &w : suites::forCoreCount(cores))
            EXPECT_EQ(w.benchmarks.size(), cores) << w.name;
}

TEST(Suites, AllBenchmarksResolvable)
{
    const auto &lib = ProfileLibrary::instance();
    for (unsigned cores : {4u, 8u, 16u, 32u})
        for (const auto &w : suites::forCoreCount(cores))
            for (const auto &b : w.benchmarks)
                EXPECT_NO_FATAL_FAILURE(lib.get(b)) << w.name;
}

TEST(Suites, Deterministic)
{
    const auto a = suites::sixteenCore();
    const auto b = suites::sixteenCore();
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].benchmarks, b[i].benchmarks);
}

TEST(Suites, PinnedPaperMixes)
{
    const auto quad = suites::quadCore();
    // Q7: the paper's ~50% gain workload contains 179.art.
    EXPECT_EQ(quad[6].name, "Q7");
    EXPECT_EQ(quad[6].benchmarks[0], "179.art");
    // Q1 contains 168.wupwise (paper: PriSM feeds wupwise).
    EXPECT_EQ(quad[0].benchmarks[0], "168.wupwise");
    // Q4: vpr + omnetpp vs bwaves + lbm.
    EXPECT_EQ(quad[3].benchmarks[0], "175.vpr");
    EXPECT_EQ(quad[3].benchmarks[1], "471.omnetpp");
}

TEST(Suites, MixesAreContentious)
{
    const auto &lib = ProfileLibrary::instance();
    // Every seeded mix must contain at least one non-insensitive
    // program — otherwise there is nothing to manage.
    for (unsigned cores : {8u, 16u, 32u}) {
        for (const auto &w : suites::forCoreCount(cores)) {
            bool has_pressure = false;
            for (const auto &b : w.benchmarks) {
                const auto cat = lib.get(b).category;
                has_pressure |= cat != BenchCategory::Insensitive;
            }
            EXPECT_TRUE(has_pressure) << w.name;
        }
    }
}

TEST(Suites, UnsupportedCoreCountIsFatal)
{
    EXPECT_DEATH(suites::forCoreCount(5), "unsupported core count");
}
