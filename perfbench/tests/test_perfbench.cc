/**
 * @file
 * Tests of the benchmark's own helpers: the percentile rule, the
 * result line, the cold-fill boundary, and the serve replay against
 * the engine.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "report.hh"
#include "serve_bench.hh"
#include "telemetry/metrics_registry.hh"

namespace perfbench
{
namespace
{

std::vector<double>
oneTo(std::size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

TEST(Percentile, NeedsTenSamplesBeyond)
{
    EXPECT_EQ(samplesBeyond(200, 0.95), 10u);
    EXPECT_EQ(samplesBeyond(199, 0.95), 9u);
    EXPECT_EQ(samplesBeyond(1000, 0.99), 10u);

    // 200 rounds are the fewest that resolve a p95.
    const std::optional<double> p95 = percentile(oneTo(200), 0.95);
    ASSERT_TRUE(p95.has_value());
    EXPECT_EQ(*p95, 190.0);
    EXPECT_FALSE(percentile(oneTo(199), 0.95).has_value());

    EXPECT_EQ(percentile(oneTo(20), 0.50).value(), 10.0);
    EXPECT_FALSE(percentile(oneTo(19), 0.50).has_value());
    EXPECT_FALSE(percentile({}, 0.50).has_value());

    // Order of the input does not matter.
    std::vector<double> shuffled = oneTo(400);
    std::reverse(shuffled.begin(), shuffled.end());
    EXPECT_EQ(percentile(shuffled, 0.95).value(), 380.0);
}

TEST(Percentile, Median)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Percentile, BucketQuantileMatchesHistogram)
{
    const std::vector<double> bounds =
        prism::telemetry::Histogram::exponentialBounds(512.0, 2.0, 8);
    prism::telemetry::Histogram h(bounds);
    for (int i = 0; i < 3000; ++i)
        h.observe(300.0 + (i % 97) * 37.0);
    std::vector<std::uint64_t> counts(h.numBuckets());
    for (std::size_t i = 0; i < counts.size(); ++i)
        counts[i] = h.bucketCount(i);

    for (const double q : {0.5, 0.9, 0.99})
        EXPECT_DOUBLE_EQ(bucketQuantile(bounds, counts, q).value(),
                         h.quantile(q));

    // 999 samples leave 9.99 beyond p99: refused. 1000 leave 10.
    std::vector<std::uint64_t> few(bounds.size() + 1, 0);
    few[2] = 999;
    EXPECT_FALSE(bucketQuantile(bounds, few, 0.99).has_value());
    few[2] = 1000;
    EXPECT_TRUE(bucketQuantile(bounds, few, 0.99).has_value());

    // A rank in the overflow bucket cannot be resolved.
    std::vector<std::uint64_t> over(bounds.size() + 1, 0);
    over.back() = 5000;
    EXPECT_FALSE(bucketQuantile(bounds, over, 0.5).has_value());
}

TEST(Report, DetailsStayOutOfTheResult)
{
    Report report;
    report.attempted(3);
    report.add("ops_per_s", 2.5, "1/s", "n=2");
    report.detail("round_ms_p95", 12.0, "ms");
    report.add("setup_s", 0.125, "s");
    std::ostringstream os;
    report.print(os);

    const std::string out = os.str();
    EXPECT_NE(out.find("  detail: round_ms_p95 = 12 ms\n"),
              std::string::npos);
    const std::string last =
        out.substr(out.rfind('\n', out.size() - 2) + 1);
    EXPECT_EQ(last, "{\"correct\": true, \"attempted\": 3, "
                    "\"failed\": 0, \"metrics\": {\"ops_per_s\": "
                    "{\"value\": 2.5, \"unit\": \"1/s\"}, \"setup_s\": "
                    "{\"value\": 0.125, \"unit\": \"s\"}}}\n");
}

/** A store small enough to fill in a few rounds of a short run. */
prism::serve::ServeConfig
tinyConfig()
{
    prism::serve::ServeConfig c;
    prism::serve::TenantSpec reader;
    reader.keys = 3000;
    prism::serve::TenantSpec writer;
    writer.keys = 20000;
    writer.zipf = 0.8;
    writer.getFrac = 0.6;
    writer.vmin = 256;
    writer.vmax = 1024;
    c.tenants = {reader, writer};
    c.threads = 2;
    c.streams = 4;
    c.batch = 256;
    c.shards = 8;
    c.capacityBytes = 1 << 20;
    c.intervalMisses = 512;
    c.seed = 7;
    // Thirty full rounds and a partial one.
    c.opBudget = 30 * 4 * 256 + 100;
    c.timing = false;
    return c;
}

TEST(ColdFill, FirstEvictingRound)
{
    const std::vector<std::uint64_t> none = {0, 0, 0};
    EXPECT_FALSE(firstEvictingRound(none).has_value());
    const std::vector<std::uint64_t> some = {0, 0, 0, 5, 9};
    EXPECT_EQ(firstEvictingRound(some).value(), 3u);
    const std::vector<std::uint64_t> first = {1, 2};
    EXPECT_EQ(firstEvictingRound(first).value(), 0u);
}

TEST(ColdFill, EngineRoundsReachTheBudget)
{
    prism::serve::ServeConfig config = tinyConfig();
    RoundClock clock;
    config.observer = &clock;
    prism::serve::ServeEngine engine(config);
    const prism::serve::ServeResult result = engine.run();

    const std::vector<RoundClock::Round> &rounds = clock.rounds();
    ASSERT_EQ(rounds.size(), result.rounds);
    std::vector<std::uint64_t> evictions;
    for (const RoundClock::Round &r : rounds)
        evictions.push_back(r.evictions);
    const std::optional<std::size_t> fill = firstEvictingRound(evictions);
    ASSERT_TRUE(fill.has_value());
    // The empty store cannot overflow in its first round, and the
    // boundary is the first round whose end saw an eviction.
    EXPECT_GT(*fill, 0u);
    EXPECT_EQ(evictions[*fill - 1], 0u);
    EXPECT_GT(evictions[*fill], 0u);
    EXPECT_LT(*fill + 1, rounds.size());
    for (std::size_t i = 1; i < rounds.size(); ++i)
        EXPECT_LE(rounds[i - 1].end, rounds[i].end);
    EXPECT_EQ(rounds.back().ops, config.opBudget);
}

TEST(Replay, MatchesEngineOnTinyConfig)
{
    const prism::serve::ServeConfig config = tinyConfig();
    prism::serve::ServeEngine engine(config);
    const ServeTotals engine_totals = totalsOf(engine.run());
    const ReplayStats replay = replayServe(config);

    EXPECT_EQ(replay.totals, engine_totals);
    EXPECT_EQ(replay.totals.ops, config.opBudget);
    EXPECT_EQ(replay.valueMismatches, 0u);
    EXPECT_GT(replay.getHits, 0u);
    EXPECT_GT(replay.totals.recomputes, 1u);
    std::uint64_t evictions = 0;
    for (const std::uint64_t e : replay.totals.evictions)
        evictions += e;
    EXPECT_GT(evictions, 0u);
    EXPECT_EQ(replay.getCalls, replay.totals.gets);
    EXPECT_EQ(replay.draws + replay.totals.victimlessEvictions,
              replay.evictCalls);

    // A different seed is a different run, which the check catches.
    prism::serve::ServeConfig other = config;
    other.seed = 8;
    EXPECT_NE(replayServe(other).totals, engine_totals);
}

} // namespace
} // namespace perfbench
