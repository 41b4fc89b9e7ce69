/**
 * @file
 * The serving plane's determinism and statistical contracts
 * (docs/SERVING.md):
 *
 *  1. For a fixed op budget with timing off, the `prism-serve-v1`
 *     document is byte-identical at 1, 2 and 8 worker threads —
 *     logical streams own the RNGs, so threads are pure machinery.
 *  2. Realised victim-tenant eviction frequencies match Equation 1's
 *     E_i: per interval, victims are drawn from the distribution the
 *     arbiter had in effect, so summing E_i-weighted expectations
 *     over intervals predicts the per-tenant eviction totals to
 *     chi-square precision (the serving analogue of the simulator's
 *     Core-Selection validation).
 *  3. With timing on, the requests at the sampled positions of each
 *     shard slice (one in kLatencySampleEvery, docs/SERVING.md) land
 *     in their tenants' latency histograms, and every request is
 *     counted exactly once in its tenant's request counter, at any
 *     thread count (the per-task tallies fold without loss or double
 *     counting).
 *  4. The committed SERVE_fixture.json pins the document itself, so
 *     a change to ghost-list membership or eviction order that shows
 *     up identically at every thread count still fails. The fixture
 *     is what `prism_serve` writes for the flags in its comment
 *     below (tools/ci_gate.sh runs the same command and cmp's it).
 *     Regenerate after an intentional behaviour change:
 *       PRISM_UPDATE_GOLDEN=1 build/tests/test_serve_determinism \
 *           --gtest_filter=ServeGolden.*
 *  5. The round pipeline (the next round's fill runs during this
 *     round's eviction) changes nothing at its edges: budgets of one
 *     op, less than a round, exactly a round and a partial last round
 *     reproduce committed documents (SERVE_ops<N>.json, written by
 *     the unpipelined engine), and a stop raised by an observer
 *     discards the prefetched round before it reaches the store.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "serve/serve_engine.hh"

using namespace prism;
using namespace prism::serve;

namespace
{

/** Small but eviction-heavy configuration: working set ~4x budget. */
ServeConfig
fixtureConfig()
{
    ServeConfig config;
    TenantSpec spec;
    spec.keys = 40000;
    config.tenants.assign(3, spec);
    config.tenants[2].zipf = 0.8; // one tenant with a flatter head
    config.capacityBytes = 4ull << 20;
    config.shards = 16;
    config.streams = 8;
    config.batch = 1024;
    config.intervalMisses = 8192;
    config.opBudget = 400000;
    config.timing = false;
    config.seed = 2012;
    return config;
}

/**
 * The golden session: `prism_serve --tenants 4 --keys 25000
 * --capacity-mb 2 --shards 16 --interval 4096 --ops 800000
 * --no-timing`. Every tenant's ghost lists wrap several times over
 * and over a third of the misses are shadow hits.
 */
ServeConfig
goldenConfig()
{
    ServeConfig config;
    TenantSpec spec;
    spec.keys = 25000;
    config.tenants.assign(4, spec);
    config.capacityBytes = 2ull << 20;
    config.shards = 16;
    config.intervalMisses = 4096;
    config.opBudget = 800000;
    config.timing = false;
    return config;
}

std::string
runToJson(ServeConfig config, std::uint32_t threads,
          ServeResult *result_out = nullptr)
{
    config.threads = threads;
    ServeEngine engine(config);
    ServeResult result = engine.run();
    std::ostringstream os;
    writeServeJson(os, config, result);
    if (result_out != nullptr)
        *result_out = result;
    return os.str();
}

} // namespace

TEST(ServeDeterminism, JsonIsByteIdenticalAcrossThreadCounts)
{
    const ServeConfig config = fixtureConfig();
    const std::string t1 = runToJson(config, 1);
    const std::string t2 = runToJson(config, 2);
    const std::string t8 = runToJson(config, 8);

    EXPECT_GT(t1.size(), 0u);
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(t1, t8);
}

#ifndef PRISM_SERVE_GOLDEN_DEFAULT
#define PRISM_SERVE_GOLDEN_DEFAULT "tests/golden/SERVE_fixture.json"
#endif

TEST(ServeGolden, MatchesCommittedFixtureAtEveryThreadCount)
{
    const char *path_env = std::getenv("PRISM_SERVE_GOLDEN");
    const std::string path =
        path_env ? path_env : PRISM_SERVE_GOLDEN_DEFAULT;
    const ServeConfig config = goldenConfig();

    if (std::getenv("PRISM_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << runToJson(config, 1);
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden document " << path
                    << " (regenerate with PRISM_UPDATE_GOLDEN=1)";
    std::ostringstream golden;
    golden << in.rdbuf();
    for (const std::uint32_t threads : {1u, 2u, 8u})
        EXPECT_EQ(runToJson(config, threads), golden.str())
            << "prism-serve-v1 drifted from the golden at " << threads
            << " thread(s)";
}

#ifndef PRISM_SERVE_GOLDEN_DIR
#define PRISM_SERVE_GOLDEN_DIR "tests/golden"
#endif

TEST(ServeGolden, EdgeBudgetsMatchCommittedDocuments)
{
    // `prism_serve --tenants 4 --keys 25000 --capacity-mb 1
    // --shards 16 --interval 4096 --ops N --no-timing`: a round is
    // 16 streams x 2048 = 32768 requests, and every budget evicts.
    ServeConfig config = goldenConfig();
    config.capacityBytes = 1ull << 20;
    const std::uint64_t round = std::uint64_t{config.streams} *
                                config.batch;
    for (const std::uint64_t ops :
         {std::uint64_t{1}, std::uint64_t{20000}, round,
          3 * round + 5000}) {
        config.opBudget = ops;
        const std::string path = std::string(PRISM_SERVE_GOLDEN_DIR) +
                                 "/SERVE_ops" + std::to_string(ops) +
                                 ".json";
        if (std::getenv("PRISM_UPDATE_GOLDEN")) {
            std::ofstream out(path, std::ios::binary);
            ASSERT_TRUE(out) << "cannot write " << path;
            out << runToJson(config, 1);
            continue;
        }
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in) << "missing golden document " << path;
        std::ostringstream golden;
        golden << in.rdbuf();
        for (const std::uint32_t threads : {1u, 2u, 8u})
            EXPECT_EQ(runToJson(config, threads), golden.str())
                << ops << " ops at " << threads << " thread(s)";
    }
}

namespace
{

/** Raises the stop flag when round @p stopAt ends. */
class StopAtRound final : public ServeObserver
{
  public:
    StopAtRound(std::atomic<bool> &flag, std::uint64_t stopAt)
        : flag_(flag), stopAt_(stopAt)
    {
    }

    void
    onIntervalClosed(const telemetry::IntervalSample &,
                     std::span<const std::uint64_t>,
                     const ServeLiveState &) override
    {
    }

    void
    onRoundEnd(const ServeLiveState &state) override
    {
        if (state.round == stopAt_)
            flag_.store(true, std::memory_order_relaxed);
    }

  private:
    std::atomic<bool> &flag_;
    std::uint64_t stopAt_;
};

} // namespace

TEST(ServePipeline, StopInRoundEndDiscardsThePrefetchedRound)
{
    constexpr std::uint64_t kStopRound = 5;
    const ServeConfig base = fixtureConfig();
    ServeConfig budgeted = base;
    budgeted.opBudget = kStopRound * base.streams * base.batch;

    for (const std::uint32_t threads : {1u, 2u, 8u}) {
        const std::string expected = runToJson(budgeted, threads);

        // Once with a budget that would run on, once by wall clock:
        // both prefetch round 6 before round 5's observers fire.
        for (const std::uint64_t budget :
             {std::uint64_t{100} * base.streams * base.batch,
              std::uint64_t{0}}) {
            std::atomic<bool> stop{false};
            StopAtRound observer(stop, kStopRound);
            ServeConfig config = base;
            config.opBudget = budget;
            config.seconds = 600.0;
            config.threads = threads;
            config.observer = &observer;
            config.stopFlag = &stop;
            ServeEngine engine(config);
            const ServeResult result = engine.run();

            EXPECT_TRUE(result.stopped);
            EXPECT_EQ(result.rounds, kStopRound);
            // Written under the budgeted run's config, the document
            // must be that run's: the prefetched requests touched
            // neither the store nor any counter.
            std::ostringstream os;
            writeServeJson(os, budgeted, result);
            EXPECT_EQ(os.str(), expected)
                << "budget " << budget << " at " << threads
                << " thread(s)";
        }
    }
}

TEST(ServeDeterminism, SeedChangesTheRun)
{
    ServeConfig config = fixtureConfig();
    const std::string a = runToJson(config, 2);
    config.seed = 2013;
    const std::string b = runToJson(config, 2);
    EXPECT_NE(a, b);
}

TEST(ServeLatency, SampledPositionsAreTimedAtEveryThreadCount)
{
    // Whole rounds only, so every stream fills a full batch a round
    // and the rounds can be replayed independently of the engine.
    constexpr std::uint64_t kRounds = 12;
    ServeConfig config = fixtureConfig();
    config.opBudget = kRounds * config.streams * config.batch;
    config.timing = true;
    const std::size_t tenants = config.tenants.size();

    // Replay fill, shardOf and the round-robin partition, then count
    // per tenant the requests at sampled positions of each slice.
    StoreConfig store_config;
    store_config.capacityBytes = config.capacityBytes;
    store_config.shards = config.shards;
    store_config.tenants = static_cast<std::uint32_t>(tenants);
    const ShardedStore router(store_config);
    LoadGen gen(config.tenants, config.streams, config.seed);
    std::vector<std::vector<Request>> batches(
        config.streams, std::vector<Request>(config.batch));
    std::vector<std::uint64_t> requests(tenants, 0);
    std::vector<std::uint64_t> sampled(tenants, 0);
    std::vector<std::uint32_t> offsets_seen(kLatencySampleEvery, 0);
    for (std::uint64_t round = 0; round < kRounds; ++round) {
        for (std::uint32_t s = 0; s < config.streams; ++s)
            gen.fill(s, batches[s]);
        std::vector<std::vector<std::uint32_t>> slice_tenants(
            router.shardCount());
        for (std::uint32_t i = 0; i < config.batch; ++i)
            for (std::uint32_t s = 0; s < config.streams; ++s) {
                const Request &req = batches[s][i];
                slice_tenants[router.shardOf(req.tenant, req.key)]
                    .push_back(req.tenant);
                ++requests[req.tenant];
            }
        for (std::uint32_t k = 0; k < router.shardCount(); ++k) {
            const std::uint32_t offset = latencySampleOffset(k, round);
            ASSERT_LT(offset, kLatencySampleEvery);
            ++offsets_seen[offset];
            const auto &slice = slice_tenants[k];
            for (std::size_t i = offset; i < slice.size();
                 i += kLatencySampleEvery)
                ++sampled[slice[i]];
        }
    }
    // The timed position is not pinned to a slice's first request.
    EXPECT_LT(offsets_seen[0], kRounds * config.shards / 4);

    for (const std::uint32_t threads : {1u, 2u, 8u}) {
        ServeResult result;
        JsonValue doc;
        ASSERT_TRUE(
            parseJson(runToJson(config, threads, &result), doc).ok());
        ASSERT_NE(result.metrics, nullptr);
        const JsonValue &timing = doc.at("timing");
        EXPECT_EQ(timing.at("latency_sample_every").asU64(),
                  kLatencySampleEvery);
        std::uint64_t counted = 0;
        for (std::size_t t = 0; t < tenants; ++t) {
            const std::string at = "tenant " + std::to_string(t) +
                                   " at " + std::to_string(threads) +
                                   " thread(s)";
            const telemetry::Histogram &h = result.metrics->histogram(
                "serve.latency_ns.t" + std::to_string(t), {});
            EXPECT_EQ(h.count(), sampled[t]) << at;
            EXPECT_GT(h.count(), requests[t] / (2 * kLatencySampleEvery))
                << at;
            std::uint64_t in_buckets = 0;
            for (std::size_t i = 0; i < h.numBuckets(); ++i)
                in_buckets += h.bucketCount(i);
            EXPECT_EQ(in_buckets, h.count()) << at;
            EXPECT_GT(h.sum(), 0.0) << at;
            EXPECT_EQ(result.metrics
                          ->counter("serve.requests.t" +
                                    std::to_string(t))
                          .value(),
                      requests[t])
                << at;

            const JsonValue &row = timing.at("latency_us").at(t);
            EXPECT_EQ(row.at("count").asU64(), sampled[t]) << at;
            EXPECT_EQ(row.at("requests").asU64(), requests[t]) << at;
            counted += row.at("requests").asU64();
        }
        EXPECT_EQ(counted, result.ops) << threads << " thread(s)";
    }
}

TEST(ServeVictimMatch, EvictionFrequenciesFollowEq1)
{
    const ServeConfig config = fixtureConfig();
    ServeResult result;
    runToJson(config, 4, &result);

    ASSERT_NE(result.recorder, nullptr);
    const std::size_t rows = result.recorder->size();
    ASSERT_EQ(rows, result.intervalEvictions.size())
        << "eviction rows must parallel the retained samples";
    ASSERT_GT(result.evictions, 0u) << "fixture must evict";

    // Expected per-tenant evictions: each interval's eviction count
    // weighted by the E distribution in effect during it (the
    // recorded sample's evProb is exactly that, by the serve
    // recording convention).
    const std::size_t tenants = config.tenants.size();
    std::vector<double> expected(tenants, 0.0);
    std::vector<double> observed(tenants, 0.0);
    for (std::size_t i = 0; i < rows; ++i) {
        const auto &sample = result.recorder->sample(i);
        ASSERT_EQ(sample.evProb.size(), tenants);
        std::uint64_t row_total = 0;
        for (const std::uint64_t v : result.intervalEvictions[i])
            row_total += v;
        for (std::size_t t = 0; t < tenants; ++t) {
            expected[t] +=
                sample.evProb[t] * static_cast<double>(row_total);
            observed[t] += static_cast<double>(
                result.intervalEvictions[i][t]);
        }
    }

    // Pearson chi-square at alpha 0.001. Critical values:
    // df 1: 10.828, df 2: 13.816, df 3: 16.266.
    static const double kCritical[] = {0.0, 10.828, 13.816, 16.266};
    double chi2 = 0.0;
    std::size_t cells = 0;
    for (std::size_t t = 0; t < tenants; ++t) {
        if (expected[t] < 5.0)
            continue; // too thin for the asymptotic test
        ++cells;
        const double d = observed[t] - expected[t];
        chi2 += d * d / expected[t];
    }
    ASSERT_GE(cells, 2u) << "fixture produced too few evictions";
    EXPECT_LT(chi2, kCritical[cells - 1])
        << "victim-tenant frequencies diverge from Equation 1";
}

TEST(ServeVictimMatch, TenantEvictionTotalsAreConsistent)
{
    const ServeConfig config = fixtureConfig();
    ServeResult result;
    runToJson(config, 2, &result);

    // Per-tenant totals must sum to the run total, and with no ring
    // wrap every interval row must be retained.
    std::uint64_t sum = 0;
    for (const TenantTotals &t : result.tenants)
        sum += t.evictions;
    EXPECT_EQ(sum, result.evictions);
    EXPECT_EQ(result.intervals, result.intervalEvictions.size());
}
