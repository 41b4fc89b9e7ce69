#include "serve_bench.hh"

#include <algorithm>

#include "common/rng.hh"
#include "exec/thread_pool.hh"

namespace perfbench
{

using prism::serve::Request;
using prism::serve::ServeConfig;
using prism::serve::ServeEngine;
using prism::serve::ServeResult;
using prism::serve::TenantSpec;

namespace
{

/**
 * Rounds per timed session: after the cold fill (the first round) each
 * session keeps over 200 steady rounds, the fewest that resolve its
 * own p95, so the run reports medians over sessions.
 */
constexpr std::uint64_t kSessionRounds = 256;

/** The byte the engine fills a value of (tenant, key) with. */
std::uint8_t
valueByte(std::uint32_t tenant, std::uint64_t key)
{
    return static_cast<std::uint8_t>(
        prism::Rng::mix64(key ^ (0x5E12C0DEull + tenant)));
}

/**
 * The serve-read engine configuration for @p seed: one session's op
 * budget, timing on as by default, no observer.
 */
ServeConfig
serveConfig(std::uint64_t seed)
{
    ServeConfig c;
    // Four identical read-mostly tenants: the get-hit path dominates.
    // The store is kept small enough (~0.5 MB of values, 12k keys) to
    // stay in a core's L2, so the run times the store's code rather
    // than the latency of a DRAM shared with other machines; a 16 MB
    // store made gets and evictions 2x slower and its timings swing
    // with the host's memory load.
    TenantSpec t;
    t.keys = 3'000;
    t.zipf = 0.99;
    t.getFrac = 0.95;
    t.vmin = 64;
    t.vmax = 256;
    c.tenants.assign(4, t);
    c.capacityBytes = 512ull << 10;
    c.threads = kWorkers;
    c.streams = 16;
    c.batch = 2048;
    c.policy = 'H';
    c.seed = seed;
    c.timing = true;
    c.opBudget = kSessionRounds * c.streams * c.batch;
    return c;
}

} // namespace

std::optional<std::size_t>
firstEvictingRound(std::span<const std::uint64_t> cumulative_evictions)
{
    for (std::size_t i = 0; i < cumulative_evictions.size(); ++i)
        if (cumulative_evictions[i] > 0)
            return i;
    return std::nullopt;
}

ServeTotals
totalsOf(const ServeResult &result)
{
    ServeTotals t;
    for (const prism::serve::TenantTotals &tt : result.tenants) {
        t.hits.push_back(tt.hits);
        t.misses.push_back(tt.misses);
        t.shadowHits.push_back(tt.shadowHits);
        t.evictions.push_back(tt.evictions);
        t.occupancyBytes.push_back(tt.occupancyBytes);
    }
    t.ops = result.ops;
    t.gets = result.gets;
    t.puts = result.puts;
    t.victimlessEvictions = result.victimlessEvictions;
    t.recomputes = result.recomputes;
    t.objects = result.objects;
    t.rehashes = result.rehashes;
    return t;
}

ReplayStats
replayServe(const ServeConfig &config)
{
    using namespace prism::serve;
    ReplayStats st;
    const auto replay_start = Clock::now();
    const auto tenants =
        static_cast<std::uint32_t>(config.tenants.size());
    const std::uint32_t streams = config.streams;

    // --- set-up, as ServeEngine::run builds its parts -------------
    StoreConfig store_config;
    store_config.capacityBytes = config.capacityBytes;
    store_config.shards = config.shards;
    store_config.tenants = tenants;
    store_config.ghostPerTenant = config.ghostPerTenant;
    ShardedStore store(store_config);
    LoadGen gen(config.tenants, streams, config.seed);
    std::vector<TenantQos> qos(tenants);
    for (std::uint32_t t = 0; t < tenants; ++t) {
        qos[t].weight = config.tenants[t].weight;
        qos[t].floorFrac = config.tenants[t].floorFrac;
        qos[t].sloHitRatio = config.tenants[t].sloHit;
    }
    TenantArbiter arbiter(
        tenants, makeTenantPolicy(config.policy, std::move(qos)),
        prism::deriveSeed(config.seed, "tenant-arbiter"),
        TenantArbiter::Params{config.intervalMisses});
    prism::ThreadPool pool(config.threads);

    std::uint64_t spec_mean_bytes = 0;
    for (const TenantSpec &spec : config.tenants)
        spec_mean_bytes += (spec.vmin + spec.vmax) / 2;
    spec_mean_bytes =
        std::max<std::uint64_t>(1, spec_mean_bytes / tenants);

    std::vector<std::vector<Request>> per_stream(streams);
    for (auto &batch : per_stream)
        batch.resize(config.batch);
    std::vector<std::uint32_t> stream_fill(streams, 0);
    std::vector<double> fill_busy(streams, 0.0);
    std::vector<Request> merged;
    merged.reserve(static_cast<std::size_t>(streams) * config.batch);
    std::vector<std::vector<std::uint32_t>> by_shard(
        store.shardCount());

    // Per-shard apply accounting: one task owns a shard per round.
    struct ShardTally
    {
        double busy = 0.0;
        double getNs = 0.0;
        double putNs = 0.0;
        std::uint64_t gets = 0;
        std::uint64_t puts = 0;
        std::uint64_t hits = 0;
        std::uint64_t mismatches = 0;
    };
    std::vector<ShardTally> tally(store.shardCount());

    std::vector<std::uint64_t> base_hits(tenants, 0);
    std::vector<std::uint64_t> base_misses(tenants, 0);
    std::vector<std::uint64_t> base_shadow(tenants, 0);
    std::vector<std::uint64_t> tenant_evictions(tenants, 0);
    std::uint64_t ops = 0, gets = 0, puts = 0, evictions = 0;
    std::uint64_t victimless = 0;

    const auto intervalMissCount = [&] {
        std::uint64_t total = 0;
        for (std::uint32_t t = 0; t < tenants; ++t)
            total += store.misses(t) - base_misses[t];
        return total;
    };
    const auto closeInterval = [&] {
        TenantSnapshot snap;
        snap.capacityBytes = config.capacityBytes;
        const std::uint64_t objects = store.objectCount();
        snap.avgObjectBytes =
            objects > 0 ? std::max<std::uint64_t>(
                              1, store.totalBytes() / objects)
                        : spec_mean_bytes;
        snap.occupancyBytes.resize(tenants);
        snap.hits.resize(tenants);
        snap.misses.resize(tenants);
        snap.shadowHits.resize(tenants);
        for (std::uint32_t t = 0; t < tenants; ++t) {
            snap.occupancyBytes[t] = store.tenantBytes(t);
            snap.hits[t] = store.hits(t) - base_hits[t];
            snap.misses[t] = store.misses(t) - base_misses[t];
            snap.shadowHits[t] = store.shadowHits(t) - base_shadow[t];
            base_hits[t] += snap.hits[t];
            base_misses[t] += snap.misses[t];
            base_shadow[t] += snap.shadowHits[t];
        }
        const auto t0 = Clock::now();
        arbiter.recompute(snap);
        st.recomputeNs += nanosBetween(t0, Clock::now());
    };

    auto mark = Clock::now();
    st.setupSeconds = secondsBetween(replay_start, mark);
    // Adds the time since the previous mark to @p phase.
    const auto lap = [&mark](double &phase) {
        const auto now = Clock::now();
        phase += secondsBetween(mark, now);
        mark = now;
    };

    for (;;) {
        const std::uint64_t remaining = config.opBudget - ops;
        if (remaining == 0)
            break;
        const std::uint64_t round_ops = std::min<std::uint64_t>(
            remaining,
            static_cast<std::uint64_t>(streams) * config.batch);
        for (std::uint32_t s = 0; s < streams; ++s)
            stream_fill[s] = static_cast<std::uint32_t>(
                round_ops / streams + (s < round_ops % streams ? 1 : 0));
        lap(st.controlSeconds);

        // (1) fill: one task per stream.
        for (std::uint32_t s = 0; s < streams; ++s) {
            if (stream_fill[s] == 0)
                continue;
            ++st.poolTasks;
            pool.submit([&gen, &per_stream, &stream_fill, &fill_busy,
                         s] {
                const auto t0 = Clock::now();
                gen.fill(s, std::span<Request>(per_stream[s].data(),
                                               stream_fill[s]));
                fill_busy[s] += secondsBetween(t0, Clock::now());
            });
        }
        pool.wait();
        lap(st.fillSeconds);

        // (2) deterministic round-robin merge.
        merged.clear();
        for (std::uint32_t i = 0; i < config.batch; ++i)
            for (std::uint32_t s = 0; s < streams; ++s)
                if (i < stream_fill[s])
                    merged.push_back(per_stream[s][i]);
        lap(st.mergeSeconds);

        // (3a) partition by shard.
        for (auto &list : by_shard)
            list.clear();
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(merged.size()); ++i) {
            const Request &req = merged[i];
            by_shard[store.shardOf(req.tenant, req.key)].push_back(i);
            if (req.isPut)
                ++puts;
            else
                ++gets;
        }
        lap(st.partitionSeconds);

        // (3b) apply: one task per non-empty shard. Every get passes
        // a buffer so a hit's bytes can be checked.
        for (std::uint32_t sh = 0; sh < store.shardCount(); ++sh) {
            const std::vector<std::uint32_t> &list = by_shard[sh];
            if (list.empty())
                continue;
            ++st.poolTasks;
            pool.submit([&store, &gen, &merged, &list, &tally, sh] {
                ShardTally &tl = tally[sh];
                const auto task_start = Clock::now();
                std::vector<std::uint8_t> buf;
                std::vector<std::uint8_t> got;
                const auto timedPut = [&](const Request &req) {
                    buf.assign(req.valueBytes,
                               valueByte(req.tenant, req.key));
                    const auto t0 = Clock::now();
                    store.put(req.tenant, req.key, buf);
                    tl.putNs += nanosBetween(t0, Clock::now());
                    ++tl.puts;
                };
                for (const std::uint32_t idx : list) {
                    const Request &req = merged[idx];
                    if (req.isPut) {
                        timedPut(req);
                        continue;
                    }
                    const auto t0 = Clock::now();
                    const bool hit =
                        store.get(req.tenant, req.key, &got).hit;
                    tl.getNs += nanosBetween(t0, Clock::now());
                    ++tl.gets;
                    if (!hit) {
                        timedPut(req); // read-through fill
                        continue;
                    }
                    ++tl.hits;
                    const std::uint8_t want =
                        valueByte(req.tenant, req.key);
                    if (got.size() !=
                            gen.valueBytes(req.tenant, req.key) ||
                        std::any_of(got.begin(), got.end(),
                                    [want](std::uint8_t b) {
                                        return b != want;
                                    }))
                        ++tl.mismatches;
                }
                tl.busy += secondsBetween(task_start, Clock::now());
            });
        }
        pool.wait();
        ops += merged.size();
        lap(st.applySeconds);

        // (4) sequential eviction down to the byte budget.
        while (store.totalBytes() > config.capacityBytes) {
            auto t0 = Clock::now();
            std::uint32_t victim = arbiter.sampleVictimTenant();
            auto t1 = Clock::now();
            std::uint64_t freed = store.evictOneFrom(victim);
            auto t2 = Clock::now();
            st.drawNs += nanosBetween(t0, t1);
            st.evictNs += nanosBetween(t1, t2);
            ++st.draws;
            ++st.evictCalls;
            if (freed == 0) {
                ++victimless;
                std::uint32_t fattest = 0;
                for (std::uint32_t t = 1; t < tenants; ++t)
                    if (store.tenantBytes(t) > store.tenantBytes(fattest))
                        fattest = t;
                victim = fattest;
                t0 = Clock::now();
                freed = store.evictOneFrom(victim);
                st.evictNs += nanosBetween(t0, Clock::now());
                ++st.evictCalls;
                if (freed == 0)
                    break;
            }
            ++evictions;
            ++tenant_evictions[victim];
        }
        lap(st.evictSeconds);

        // (5) control loop at the interval boundary.
        if (intervalMissCount() >= config.intervalMisses)
            closeInterval();
        lap(st.controlSeconds);
    }
    // The engine closes the partial tail interval too.
    if (intervalMissCount() > 0)
        closeInterval();
    lap(st.controlSeconds);

    for (const double b : fill_busy)
        st.fillBusySeconds += b;
    for (const ShardTally &tl : tally) {
        st.applyBusySeconds += tl.busy;
        st.getNs += tl.getNs;
        st.putNs += tl.putNs;
        st.getCalls += tl.gets;
        st.putCalls += tl.puts;
        st.getHits += tl.hits;
        st.valueMismatches += tl.mismatches;
    }

    ServeTotals &t = st.totals;
    for (std::uint32_t i = 0; i < tenants; ++i) {
        t.hits.push_back(store.hits(i));
        t.misses.push_back(store.misses(i));
        t.shadowHits.push_back(store.shadowHits(i));
        t.evictions.push_back(tenant_evictions[i]);
        t.occupancyBytes.push_back(store.tenantBytes(i));
    }
    t.ops = ops;
    t.gets = gets;
    t.puts = puts;
    t.victimlessEvictions = victimless;
    t.recomputes = arbiter.recomputes();
    t.objects = store.objectCount();
    t.rehashes = store.rehashes();
    st.wallSeconds = secondsBetween(replay_start, Clock::now());
    return st;
}

namespace
{

/** One session's latency histograms, merged over tenants. */
struct LatencyBuckets
{
    std::vector<double> boundsNs;
    std::vector<std::uint64_t> counts;

    explicit LatencyBuckets(const ServeResult &r)
    {
        for (std::size_t t = 0; t < r.tenants.size(); ++t) {
            const prism::telemetry::Histogram &h = r.metrics->histogram(
                "serve.latency_ns.t" + std::to_string(t), {});
            if (counts.empty()) {
                boundsNs = h.bounds();
                counts.assign(h.numBuckets(), 0);
            }
            for (std::size_t i = 0; i < h.numBuckets(); ++i)
                counts[i] += h.bucketCount(i);
        }
    }

    /** The @p q quantile in microseconds. */
    std::optional<double>
    us(double q) const
    {
        const std::optional<double> ns =
            bucketQuantile(boundsNs, counts, q);
        return ns ? std::optional<double>(*ns / 1e3) : std::nullopt;
    }
};

/** Per-session values of the timed metrics; medians are reported. */
struct SessionSamples
{
    std::vector<double> setupS, opsPerS, cpuNsPerOp, roundP50,
        roundP95, opP50, opP99;
    std::uint64_t minSteadyRounds = ~std::uint64_t{0};
    std::uint64_t minRequests = ~std::uint64_t{0};

    /** Add one session; false when a percentile is unresolved. */
    bool
    add(Clock::time_point constructed,
        const std::vector<RoundClock::Round> &rounds, std::size_t fill,
        const ServeResult &result)
    {
        std::vector<double> round_ms;
        for (std::size_t i = fill + 1; i < rounds.size(); ++i)
            round_ms.push_back(
                secondsBetween(rounds[i - 1].end, rounds[i].end) * 1e3);
        const LatencyBuckets latency(result);
        const std::optional<double> r50 = percentile(round_ms, 0.50);
        const std::optional<double> r95 = percentile(round_ms, 0.95);
        const std::optional<double> o50 = latency.us(0.50);
        const std::optional<double> o99 = latency.us(0.99);
        if (!r50 || !r95 || !o50 || !o99)
            return false;

        const RoundClock::Round &from = rounds[fill];
        const RoundClock::Round &to = rounds.back();
        const double steady_ops = static_cast<double>(to.ops - from.ops);
        setupS.push_back(secondsBetween(constructed, from.end));
        opsPerS.push_back(steady_ops / secondsBetween(from.end, to.end));
        cpuNsPerOp.push_back((to.cpuSeconds - from.cpuSeconds) * 1e9 /
                             steady_ops);
        roundP50.push_back(*r50);
        roundP95.push_back(*r95);
        opP50.push_back(*o50);
        opP99.push_back(*o99);
        minSteadyRounds =
            std::min<std::uint64_t>(minSteadyRounds, round_ms.size());
        minRequests = std::min(minRequests, result.ops);
        return true;
    }
};

/** The timed sessions (trace off): end-to-end metrics. */
void
timedSessions(std::uint64_t seed, double seconds, Report &report)
{
    ServeConfig config = serveConfig(seed);
    SessionSamples samples;
    std::optional<ServeTotals> first;

    const auto start = Clock::now();
    do {
        RoundClock clock;
        config.observer = &clock;
        const auto constructed = Clock::now();
        ServeEngine engine(config);
        const ServeResult result = engine.run();
        config.observer = nullptr;

        const ServeTotals totals = totalsOf(result);
        report.attempted(result.ops);
        if (!first)
            first = totals;
        else
            report.check(totals == *first,
                         "session totals differ from the first "
                         "session's",
                         result.ops);

        const std::vector<RoundClock::Round> &rounds = clock.rounds();
        std::vector<std::uint64_t> cumulative;
        for (const RoundClock::Round &r : rounds)
            cumulative.push_back(r.evictions);
        const std::optional<std::size_t> fill =
            firstEvictingRound(cumulative);
        if (!fill)
            report.fail("session never reached its byte budget",
                        result.ops);
        else
            report.check(samples.add(constructed, rounds, *fill, result),
                         "session too short to resolve its percentiles",
                         result.ops);
    } while (secondsBetween(start, Clock::now()) < seconds);
    // Before the check below, which builds a store of its own.
    const double rss_mb = peakRssMb();

    // The traced run's totals for this seed come from the replay.
    ServeConfig untimed = serveConfig(seed);
    untimed.timing = false;
    const ReplayStats replay = replayServe(untimed);
    if (first)
        report.check(replay.totals == *first,
                     "engine totals differ from the replay's",
                     first->ops);
    report.check(replay.valueMismatches == 0,
                 "replayed get hits returned wrong bytes",
                 replay.valueMismatches);

    if (samples.setupS.empty())
        return;
    const std::string n =
        "median of " + std::to_string(samples.setupS.size()) +
        " sessions";
    const std::string rounds_note =
        n + ", each >= " + std::to_string(samples.minSteadyRounds) +
        " steady rounds";
    const std::string requests_note =
        n + ", each " + std::to_string(samples.minRequests) + " requests";
    std::uint64_t hits = 0, accesses = 0;
    for (std::size_t t = 0; t < first->hits.size(); ++t) {
        hits += first->hits[t];
        accesses += first->hits[t] + first->misses[t];
    }
    const double hit_ratio =
        static_cast<double>(hits) /
        static_cast<double>(std::max<std::uint64_t>(1, accesses));
    report.add("setup_s", median(samples.setupS), "s", n);
    report.add("peak_rss_mb", rss_mb, "MB");
    report.add("ops_per_s", median(samples.opsPerS), "1/s",
               rounds_note + "; an op is a request");
    report.add("cpu_ns_per_op", median(samples.cpuNsPerOp), "ns",
               rounds_note);
    report.add("prism_h_miss_ratio", 1.0 - hit_ratio, "ratio",
               "store-wide gets, deterministic per seed");
    report.detail("round_ms_p50", median(samples.roundP50), "ms",
                  rounds_note);
    report.detail("round_ms_p95", median(samples.roundP95), "ms",
                  rounds_note);
    report.detail("op_us_p50", median(samples.opP50), "us",
                  requests_note);
    report.detail("op_us_p99", median(samples.opP99), "us",
                  requests_note);
}

/** The traced run: replay phases, call costs and timing overhead. */
void
tracedRun(std::uint64_t seed, Report &report)
{
    const auto traced_start = Clock::now();
    const double timer_ns = calibrateClockPairNs();
    double covered = secondsBetween(traced_start, Clock::now());

    // Engine with timing on, then off, twice each: the telemetry
    // overhead as the user sees it.
    std::vector<double> wall_on, wall_off;
    std::optional<ServeTotals> engine_totals;
    for (int rep = 0; rep < 2; ++rep)
        for (const bool timing : {true, false}) {
            ServeConfig config = serveConfig(seed);
            config.timing = timing;
            const auto t0 = Clock::now();
            ServeEngine engine(config);
            const ServeResult result = engine.run();
            const double wall = secondsBetween(t0, Clock::now());
            covered += wall;
            (timing ? wall_on : wall_off).push_back(wall);
            report.attempted(result.ops);
            const ServeTotals totals = totalsOf(result);
            if (!engine_totals)
                engine_totals = totals;
            else
                report.check(totals == *engine_totals,
                             "engine totals differ between timing on "
                             "and off",
                             result.ops);
        }

    ServeConfig config = serveConfig(seed);
    config.timing = false;
    const ReplayStats r = replayServe(config);
    report.attempted(r.totals.ops);
    report.check(r.totals == *engine_totals,
                 "replay totals differ from the engine's", r.totals.ops);
    report.check(r.valueMismatches == 0,
                 "replayed get hits returned wrong bytes",
                 r.valueMismatches);

    const double phases = r.setupSeconds + r.fillSeconds +
                          r.mergeSeconds + r.partitionSeconds +
                          r.applySeconds + r.evictSeconds +
                          r.controlSeconds;
    covered += phases;
    const double traced_wall =
        secondsBetween(traced_start, Clock::now());
    const double unattributed = 1.0 - covered / traced_wall;

    const auto perCall = [timer_ns](double ns, std::uint64_t calls) {
        return calls ? ns / static_cast<double>(calls) - timer_ns : 0.0;
    };
    const double on = median(wall_on);
    const double off = median(wall_off);
    const ServeTotals &t = r.totals;
    std::uint64_t misses = 0, shadow = 0, evictions = 0;
    for (std::size_t i = 0; i < t.hits.size(); ++i) {
        misses += t.misses[i];
        shadow += t.shadowHits[i];
        evictions += t.evictions[i];
    }
    const double workers = kWorkers;

    const double store_calls =
        static_cast<double>(r.getCalls + r.putCalls);
    const double store_s =
        (r.getNs + r.putNs) * 1e-9 - store_calls * timer_ns * 1e-9;
    const double recompute_s =
        perCall(r.recomputeNs, t.recomputes) * 1e-9 *
        static_cast<double>(t.recomputes);

    // The rows every workload reports, in BENCHMARK.json's order.
    report.add("exec.tasks", static_cast<double>(r.poolTasks), "count",
               "fill and apply tasks");
    report.add("exec.task_busy_s",
               r.fillBusySeconds + r.applyBusySeconds, "s");
    report.add("exec.worker_idle_s",
               (r.fillSeconds + r.applySeconds) * workers -
                   r.fillBusySeconds - r.applyBusySeconds,
               "s", "waiting at the fill and apply barriers");
    report.add("workload.gen_ops", static_cast<double>(t.ops), "count",
               "requests LoadGen::fill made");
    report.add("workload.gen_ns_per_op",
               r.fillBusySeconds * 1e9 /
                   static_cast<double>(std::max<std::uint64_t>(1, t.ops)),
               "ns");
    report.add("cache.accesses", store_calls, "count",
               "store gets and puts");
    report.add("cache.access_s", store_s, "s", "timer cost removed");
    report.add("cache.ns_per_access",
               store_s * 1e9 / std::max(1.0, store_calls), "ns");
    report.add("cache.miss_ratio",
               1.0 - static_cast<double>(r.getHits) /
                         static_cast<double>(std::max<std::uint64_t>(
                             1, r.getCalls)),
               "ratio", "replayed gets");
    report.add("plane.recomputes", static_cast<double>(t.recomputes),
               "count", "TenantArbiter::recompute");
    report.add("plane.recompute_s", recompute_s, "s",
               "timer cost removed");
    report.add("plane.recompute_us_mean",
               perCall(r.recomputeNs, t.recomputes) / 1e3, "us");
    report.add("trace.overhead_frac", (r.wallSeconds - off) / off,
               "ratio", "replay vs engine with timing off");
    report.add("trace.timer_cost_ns", timer_ns, "ns",
               "one pair of clock reads");
    report.add("trace.unattributed_frac", unattributed, "ratio");

    // The store's own rows.
    report.detail("plane.serve.victim_draws",
                  static_cast<double>(r.draws), "count");
    report.detail("plane.serve.ns_per_draw", perCall(r.drawNs, r.draws),
                  "ns");
    report.detail("serve.fill_s", r.fillSeconds, "s");
    report.detail("serve.merge_s", r.mergeSeconds, "s");
    report.detail("serve.partition_s", r.partitionSeconds, "s");
    report.detail("serve.apply_s", r.applySeconds, "s");
    report.detail("serve.evict_s", r.evictSeconds, "s");
    report.detail("serve.control_s", r.controlSeconds, "s");
    report.detail("serve.fill_idle_s",
                  r.fillSeconds * workers - r.fillBusySeconds, "s");
    report.detail("serve.apply_idle_s",
                  r.applySeconds * workers - r.applyBusySeconds, "s");
    report.detail("serve.gets", static_cast<double>(r.getCalls),
                  "count");
    report.detail("serve.puts", static_cast<double>(r.putCalls),
                  "count", "writes + read-through fills");
    report.detail("serve.evictions", static_cast<double>(evictions),
                  "count");
    report.detail("serve.victimless_evictions",
                  static_cast<double>(t.victimlessEvictions), "count");
    report.detail("serve.rehashes", static_cast<double>(t.rehashes),
                  "count");
    report.detail("serve.ns_per_get", perCall(r.getNs, r.getCalls),
                  "ns");
    report.detail("serve.ns_per_put", perCall(r.putNs, r.putCalls),
                  "ns");
    report.detail("serve.ns_per_eviction",
                  perCall(r.evictNs, r.evictCalls), "ns");
    report.detail("serve.shadow_hits_per_miss",
                  static_cast<double>(shadow) /
                      static_cast<double>(
                          std::max<std::uint64_t>(1, misses)),
                  "ratio");
    report.detail("serve.victimless_ratio",
                  static_cast<double>(t.victimlessEvictions) /
                      static_cast<double>(
                          std::max<std::uint64_t>(1, evictions)),
                  "ratio");
    report.detail("telemetry.timing_overhead_frac", (on - off) / on,
                  "ratio", "engine wall, median of 2 on / 2 off");
    report.check(unattributed <= 0.10,
                 "trace.unattributed_frac " +
                     std::to_string(unattributed) +
                     " exceeds 0.10: the layer rows miss wall time");
}

} // namespace

void
runServe(std::uint64_t seed, double seconds, bool trace, Report &report)
{
    if (trace)
        tracedRun(seed, report);
    else
        timedSessions(seed, seconds, report);
}

} // namespace perfbench
