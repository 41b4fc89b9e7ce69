#include "serve/serve_engine.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ostream>

#include "common/json.hh"
#include "common/prism_assert.hh"
#include "exec/thread_pool.hh"

namespace prism::serve
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Deterministic fill pattern so reads can verify round trips. */
void
makeValue(std::vector<std::uint8_t> &buf, const Request &req)
{
    buf.assign(req.valueBytes,
               static_cast<std::uint8_t>(Rng::mix64(
                   req.key ^ (0x5E12C0DEull + req.tenant))));
}

/** The registry entries the apply tasks fold into, one per tenant. */
struct LatencySinks
{
    /** Sampled latencies ("serve.latency_ns.t<i>"). */
    std::vector<telemetry::Histogram *> histograms;
    /** Exact request counts ("serve.requests.t<i>"). */
    std::vector<telemetry::Counter *> requests;
};

/**
 * One apply task's tallies: per-tenant bucket counts of the sampled
 * requests and exact per-tenant request counts, in plain integers
 * that fold() adds to the registry once, when the task ends, so a
 * request writes no cache line another worker writes.
 */
class LatencyTally
{
  public:
    explicit LatencyTally(const LatencySinks &sinks)
        : sinks_(sinks),
          buckets_(sinks.histograms.empty()
                       ? 0
                       : sinks.histograms[0]->numBuckets()),
          counts_(sinks.histograms.size() * buckets_, 0),
          sums_(sinks.histograms.size(), 0),
          requests_(sinks.requests.size(), 0)
    {
    }

    /** Count one request of @p tenant, timed or not. */
    void count(std::uint32_t tenant) { ++requests_[tenant]; }

    /** Record one timed request's latency. */
    void
    record(std::uint32_t tenant, std::uint64_t ns)
    {
        ++counts_[tenant * buckets_ +
                  sinks_.histograms[tenant]->bucketOf(
                      static_cast<double>(ns))];
        sums_[tenant] += ns;
    }

    void
    fold() const
    {
        for (std::size_t t = 0; t < sinks_.histograms.size(); ++t) {
            sinks_.histograms[t]->addCounts(
                std::span<const std::uint64_t>(
                    counts_.data() + t * buckets_, buckets_),
                static_cast<double>(sums_[t]));
            sinks_.requests[t]->add(requests_[t]);
        }
    }

  private:
    const LatencySinks &sinks_;
    std::size_t buckets_;
    std::vector<std::uint64_t> counts_;
    std::vector<std::uint64_t> sums_;
    std::vector<std::uint64_t> requests_;
};

} // namespace

std::uint32_t
latencySampleOffset(std::uint32_t shard, std::uint64_t round)
{
    return static_cast<std::uint32_t>(
        Rng::mix64((round << 32) ^ shard) % kLatencySampleEvery);
}

const char *
policyName(char kind)
{
    switch (kind) {
      case 'H':
        return "HitMax";
      case 'F':
        return "Fair";
      case 'Q':
        return "QoS";
      default:
        return "?";
    }
}

std::vector<std::string>
ServeConfig::validate() const
{
    std::vector<std::string> errors;
    const auto need = [&errors](bool ok, const std::string &msg) {
        if (!ok)
            errors.push_back(msg);
    };

    need(!tenants.empty(), "at least one tenant is needed");
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        const TenantSpec &spec = tenants[t];
        const std::string who = "tenant " + std::to_string(t) + ": ";
        need(spec.keys > 0, who + "keys must be positive");
        need(std::isfinite(spec.zipf) && spec.zipf >= 0.0,
             who + "zipf must be a finite number >= 0");
        need(spec.getFrac >= 0.0 && spec.getFrac <= 1.0,
             who + "get fraction must be in [0, 1]");
        need(spec.vmin > 0 && spec.vmin <= spec.vmax,
             who + "value sizes need 0 < vmin <= vmax");
        need(std::isfinite(spec.weight) && spec.weight >= 0.0,
             who + "weight must be a finite number >= 0");
        need(spec.sloHit >= 0.0 && spec.sloHit <= 1.0,
             who + "slo-hit must be in [0, 1]");
        need(spec.floorFrac >= 0.0 && spec.floorFrac < 1.0,
             who + "floor must be in [0, 1)");
    }
    need(threads >= 1 && threads <= kMaxThreads,
         "threads must be in [1, " + std::to_string(kMaxThreads) + "]");
    need(shards >= 1 && shards <= kMaxShards,
         "shards must be in [1, " + std::to_string(kMaxShards) + "]");
    need(streams >= 1 && batch >= 1 &&
             static_cast<std::uint64_t>(streams) * batch <=
                 kMaxRoundRequests,
         "streams and batch must be positive with streams * batch "
         "<= " + std::to_string(kMaxRoundRequests));
    need(capacityBytes > 0, "capacity must be positive");
    need(intervalMisses > 0, "interval must be positive");
    need(policy == 'H' || policy == 'F' || policy == 'Q',
         "policy must be H, F or Q");
    need(opBudget > 0 ||
             (std::isfinite(seconds) && seconds > 0.0 &&
              seconds <= kMaxSeconds),
         "seconds must be positive and at most " +
             std::to_string(static_cast<std::uint64_t>(kMaxSeconds)) +
             " when there is no op budget");
    return errors;
}

ServeEngine::ServeEngine(const ServeConfig &config) : config_(config)
{
    if (const std::vector<std::string> errors = config_.validate();
        !errors.empty())
        fatal("ServeEngine: " + errors.front());
}

ServeResult
ServeEngine::run()
{
    const auto tenants =
        static_cast<std::uint32_t>(config_.tenants.size());

    StoreConfig store_config;
    store_config.capacityBytes = config_.capacityBytes;
    store_config.shards = config_.shards;
    store_config.tenants = tenants;
    store_config.ghostPerTenant = config_.ghostPerTenant;
    ShardedStore store(store_config);

    LoadGen gen(config_.tenants, config_.streams, config_.seed);

    std::vector<TenantQos> qos(tenants);
    for (std::uint32_t t = 0; t < tenants; ++t) {
        qos[t].weight = config_.tenants[t].weight;
        qos[t].floorFrac = config_.tenants[t].floorFrac;
        qos[t].sloHitRatio = config_.tenants[t].sloHit;
    }
    TenantArbiter arbiter(
        tenants, makeTenantPolicy(config_.policy, std::move(qos)),
        deriveSeed(config_.seed, "tenant-arbiter"),
        TenantArbiter::Params{config_.intervalMisses});

    ThreadPool pool(config_.threads);

    ServeResult result;
    result.tenants.resize(tenants);
    result.recorder = std::make_shared<telemetry::IntervalRecorder>(
        std::max<std::size_t>(1, config_.recorderCapacity));
    result.metrics = std::make_shared<telemetry::MetricsRegistry>();

    // Per-tenant sampled latency histograms (~0.5us to ~1s in
    // nanoseconds) and exact request counters.
    LatencySinks latency;
    if (config_.timing) {
        const std::vector<double> bounds =
            telemetry::Histogram::exponentialBounds(512.0, 2.0, 22);
        for (std::uint32_t t = 0; t < tenants; ++t) {
            const std::string suffix = ".t" + std::to_string(t);
            latency.histograms.push_back(&result.metrics->histogram(
                "serve.latency_ns" + suffix, bounds));
            latency.requests.push_back(
                &result.metrics->counter("serve.requests" + suffix));
        }
    }

    // Mean spec size stands in for the measured mean until the
    // store holds objects (first interval of a cold run).
    std::uint64_t spec_mean_bytes = 0;
    for (const TenantSpec &spec : config_.tenants)
        spec_mean_bytes += (spec.vmin + spec.vmax) / 2;
    spec_mean_bytes =
        std::max<std::uint64_t>(1, spec_mean_bytes / tenants);

    // Round-pipeline scratch, reused every round. route[s][i] is the
    // shard per_stream[s][i] goes to, written by the fill task.
    const std::uint32_t streams = config_.streams;
    std::vector<std::vector<Request>> per_stream(streams);
    std::vector<std::vector<std::uint32_t>> route(streams);
    for (std::uint32_t s = 0; s < streams; ++s) {
        per_stream[s].resize(config_.batch);
        route[s].resize(config_.batch);
    }
    std::vector<std::uint32_t> stream_fill(streams, 0);
    std::vector<std::vector<const Request *>> by_shard(
        store.shardCount());

    // Interval state: counter snapshots taken at interval open.
    std::vector<std::uint64_t> base_hits(tenants, 0);
    std::vector<std::uint64_t> base_misses(tenants, 0);
    std::vector<std::uint64_t> base_shadow(tenants, 0);
    std::vector<std::uint64_t> interval_evictions(tenants, 0);
    std::uint64_t interval_idx = 0;

    const auto intervalMissCount = [&] {
        std::uint64_t total = 0;
        for (std::uint32_t t = 0; t < tenants; ++t)
            total += store.misses(t) - base_misses[t];
        return total;
    };

    // Live-plane observation state, refreshed from the sequential
    // sections only, so observers see thread-count-independent data.
    ServeLiveState live;
    live.tenants.resize(tenants);
    const auto fillLive = [&] {
        live.round = result.rounds;
        live.ops = result.ops;
        live.gets = result.gets;
        live.puts = result.puts;
        live.intervals = interval_idx;
        live.evictions = result.evictions;
        live.victimlessEvictions = result.victimlessEvictions;
        live.recomputes = arbiter.recomputes();
        live.eq1Fallbacks = arbiter.eq1Fallbacks();
        live.clampedEq1Inputs = arbiter.clampedInputs();
        live.occupancyBytes = store.totalBytes();
        live.objects = store.objectCount();
        live.droppedSamples = result.recorder->droppedSamples();
        live.droppedEvents = result.recorder->droppedEvents();
        for (std::uint32_t t = 0; t < tenants; ++t) {
            TenantTotals &tt = live.tenants[t];
            tt.hits = store.hits(t);
            tt.misses = store.misses(t);
            tt.shadowHits = store.shadowHits(t);
            tt.evictions = result.tenants[t].evictions;
            tt.occupancyBytes = store.tenantBytes(t);
        }
        live.targets = arbiter.targets();
        live.evProbs = arbiter.evictionProbs();
        live.recorder = result.recorder.get();
        live.metrics = result.metrics.get();
    };

    const auto closeInterval = [&](std::uint64_t misses_in_interval) {
        telemetry::IntervalSample sample;
        sample.interval = ++interval_idx;
        sample.missesInInterval = misses_in_interval;
        sample.occupancy.resize(tenants);
        sample.missFrac.resize(tenants);
        sample.hits.resize(tenants);
        sample.misses.resize(tenants);
        // The distribution *in effect during* the interval — not the
        // one the recompute below produces. This aligns each row
        // with the evictions it actually steered, which is what the
        // victim-match statistics need (docs/SERVING.md).
        sample.target = arbiter.targets();
        sample.evProb = arbiter.evictionProbs();

        TenantSnapshot snap;
        snap.capacityBytes = config_.capacityBytes;
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
            const std::uint64_t bytes = store.tenantBytes(t);
            snap.occupancyBytes[t] = bytes;
            snap.hits[t] = store.hits(t) - base_hits[t];
            snap.misses[t] = store.misses(t) - base_misses[t];
            snap.shadowHits[t] =
                store.shadowHits(t) - base_shadow[t];

            sample.occupancy[t] =
                static_cast<double>(bytes) /
                static_cast<double>(config_.capacityBytes);
            sample.missFrac[t] =
                misses_in_interval
                    ? static_cast<double>(snap.misses[t]) /
                          static_cast<double>(misses_in_interval)
                    : 0.0;
            sample.hits[t] = snap.hits[t];
            sample.misses[t] = snap.misses[t];

            base_hits[t] += snap.hits[t];
            base_misses[t] += snap.misses[t];
            base_shadow[t] += snap.shadowHits[t];
        }
        result.recorder->record(std::move(sample));
        result.intervalEvictions.push_back(interval_evictions);
        std::fill(interval_evictions.begin(),
                  interval_evictions.end(), 0);

        arbiter.recompute(snap);

        if (config_.observer) {
            fillLive();
            // The recorded copy survives the move above; its row in
            // intervalEvictions is the one just pushed.
            config_.observer->onIntervalClosed(
                result.recorder->sample(result.recorder->size() -
                                        1),
                std::span<const std::uint64_t>(
                    result.intervalEvictions.back()),
                live);
        }
    };

    const bool budgeted = config_.opBudget > 0;
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(config_.seconds));

    // True when the stop flag or the deadline ends the run here.
    const auto runEnds = [&] {
        if (config_.stopFlag &&
            config_.stopFlag->load(std::memory_order_relaxed)) {
            result.stopped = true;
            return true;
        }
        return !budgeted && Clock::now() >= deadline;
    };

    // Sizes the next round into stream_fill and submits its fill
    // tasks, which generate the requests and route them to shards.
    // Round sizes depend only on result.ops and requests on no store
    // state, so the fill may run while the previous round evicts.
    // False when the op budget is spent.
    const auto startFill = [&] {
        if (budgeted) {
            const std::uint64_t remaining =
                config_.opBudget - result.ops;
            if (remaining == 0)
                return false;
            const std::uint64_t round_ops = std::min<std::uint64_t>(
                remaining,
                static_cast<std::uint64_t>(streams) * config_.batch);
            for (std::uint32_t s = 0; s < streams; ++s)
                stream_fill[s] = static_cast<std::uint32_t>(
                    round_ops / streams +
                    (s < round_ops % streams ? 1 : 0));
        } else {
            std::fill(stream_fill.begin(), stream_fill.end(),
                      config_.batch);
        }
        for (std::uint32_t s = 0; s < streams; ++s) {
            if (stream_fill[s] == 0)
                continue;
            pool.submit([&gen, &store, &per_stream, &route, s,
                         n = stream_fill[s]] {
                const std::span<Request> batch(per_stream[s].data(), n);
                gen.fill(s, batch);
                for (std::uint32_t i = 0; i < n; ++i)
                    route[s][i] = store.shardOf(batch[i].tenant,
                                                batch[i].key);
            });
        }
        return true;
    };

    bool next = !runEnds() && startFill();
    while (next) {
        pool.wait(); // this round's requests are generated and routed

        // --- partition by shard in round-robin stream order --------
        for (auto &list : by_shard)
            list.clear();
        std::uint64_t round_ops = 0;
        for (std::uint32_t i = 0; i < config_.batch; ++i)
            for (std::uint32_t s = 0; s < streams; ++s)
                if (i < stream_fill[s]) {
                    const Request &req = per_stream[s][i];
                    by_shard[route[s][i]].push_back(&req);
                    if (req.isPut)
                        ++result.puts;
                    else
                        ++result.gets;
                    ++round_ops;
                }

        // --- parallel apply, one shard lock per task ---------------
        for (std::uint32_t k = 0; k < by_shard.size(); ++k) {
            if (by_shard[k].empty())
                continue;
            pool.submit([&store, list = &by_shard[k], k, &latency,
                         round = result.rounds,
                         timing = config_.timing] {
                std::vector<std::uint8_t> buf;
                LatencyTally tally(latency); // empty without timing
                ShardedStore::ShardAccess shard = store.lockShard(k);
                const auto apply = [&](const Request &req) {
                    if (req.isPut) {
                        makeValue(buf, req);
                        shard.put(req.tenant, req.key, buf);
                    } else if (!shard.get(req.tenant, req.key).hit) {
                        // Read-through fill: a get miss fetches the
                        // object from the (modelled) backend.
                        makeValue(buf, req);
                        shard.put(req.tenant, req.key, buf);
                    }
                };
                // Sampled timing: every request is counted, and one
                // position in kLatencySampleEvery is timed with a
                // clock read on each side of its store call.
                const std::size_t n = list->size();
                std::size_t timed =
                    timing ? latencySampleOffset(k, round) : n;
                for (std::size_t i = 0; i < n; ++i) {
                    const Request &req = *(*list)[i];
                    if (timing)
                        tally.count(req.tenant);
                    if (i != timed) {
                        apply(req);
                        continue;
                    }
                    const auto start = Clock::now();
                    apply(req);
                    tally.record(req.tenant,
                                 static_cast<std::uint64_t>(
                                     std::chrono::nanoseconds(
                                         Clock::now() - start)
                                         .count()));
                    timed += kLatencySampleEvery;
                }
                tally.fold();
            });
        }
        pool.wait();
        result.ops += round_ops;
        ++result.rounds;

        // --- generate the next round while this one evicts ---------
        next = startFill();

        // --- sequential capacity eviction --------------------------
        // The pass is the only writer now, so it tracks occupancy
        // itself rather than re-summing the shards per eviction.
        std::uint64_t resident = store.totalBytes();
        while (resident > config_.capacityBytes) {
            std::uint32_t victim = arbiter.sampleVictimTenant();
            std::uint64_t freed = store.evictOneFrom(victim);
            if (freed == 0) {
                // Sampled tenant holds nothing here: charge the
                // fattest tenant instead (and count the miss-step).
                ++result.victimlessEvictions;
                std::uint32_t fattest = 0;
                for (std::uint32_t t = 1; t < tenants; ++t)
                    if (store.tenantBytes(t) >
                        store.tenantBytes(fattest))
                        fattest = t;
                victim = fattest;
                freed = store.evictOneFrom(victim);
                if (freed == 0)
                    break; // nothing anywhere to evict
            }
            resident -= freed;
            ++result.evictions;
            ++interval_evictions[victim];
            ++result.tenants[victim].evictions;
        }

        // --- control loop at the interval boundary -----------------
        const std::uint64_t interval_misses = intervalMissCount();
        if (interval_misses >= config_.intervalMisses)
            closeInterval(interval_misses);

        if (config_.observer) {
            fillLive();
            config_.observer->onRoundEnd(live);
        }

        // A prefetched round the stop flag or deadline ends the run
        // before is discarded: it never reaches the store.
        if (runEnds())
            next = false;
    }
    pool.wait(); // a discarded prefetch's fill tasks

    // The final partial interval still carries signal — record it
    // (the simulator does the same for its last interval).
    const std::uint64_t tail_misses = intervalMissCount();
    if (tail_misses > 0)
        closeInterval(tail_misses);

    if (config_.timing)
        result.wallSeconds =
            std::chrono::duration<double>(Clock::now() - start)
                .count();

    result.intervals = interval_idx;
    result.recomputes = arbiter.recomputes();
    result.eq1Fallbacks = arbiter.eq1Fallbacks();
    result.clampedEq1Inputs = arbiter.clampedInputs();
    result.occupancyBytes = store.totalBytes();
    result.objects = store.objectCount();
    result.rehashes = store.rehashes();
    for (std::uint32_t t = 0; t < tenants; ++t) {
        result.tenants[t].hits = store.hits(t);
        result.tenants[t].misses = store.misses(t);
        result.tenants[t].shadowHits = store.shadowHits(t);
        result.tenants[t].occupancyBytes = store.tenantBytes(t);
    }

    if (config_.observer) {
        fillLive();
        config_.observer->onRunEnd(live);
    }
    return result;
}

void
writeServeJson(std::ostream &os, const ServeConfig &config,
               const ServeResult &result)
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "prism-serve-v1");
    w.kv("policy", policyName(config.policy));

    w.key("config");
    w.beginObject();
    w.kv("capacity_bytes", config.capacityBytes);
    w.kv("shards", config.shards);
    w.kv("streams", config.streams);
    w.kv("batch", config.batch);
    w.kv("interval_misses", config.intervalMisses);
    w.kv("seed", config.seed);
    w.kv("op_budget", config.opBudget);
    w.key("tenants");
    w.beginArray();
    for (const TenantSpec &spec : config.tenants) {
        w.beginObject();
        w.kv("keys", spec.keys);
        w.kv("zipf", spec.zipf);
        w.kv("get_frac", spec.getFrac);
        w.kv("vmin", spec.vmin);
        w.kv("vmax", spec.vmax);
        w.kv("weight", spec.weight);
        w.kv("slo_hit", spec.sloHit);
        w.kv("floor", spec.floorFrac);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("totals");
    w.beginObject();
    w.kv("ops", result.ops);
    w.kv("gets", result.gets);
    w.kv("puts", result.puts);
    std::uint64_t hits = 0, misses = 0, shadow = 0;
    for (const TenantTotals &t : result.tenants) {
        hits += t.hits;
        misses += t.misses;
        shadow += t.shadowHits;
    }
    w.kv("hits", hits);
    w.kv("misses", misses);
    w.kv("shadow_hits", shadow);
    w.kv("evictions", result.evictions);
    w.kv("victimless_evictions", result.victimlessEvictions);
    w.kv("rounds", result.rounds);
    w.kv("intervals", result.intervals);
    w.kv("recomputes", result.recomputes);
    w.kv("eq1_fallbacks", result.eq1Fallbacks);
    w.kv("clamped_eq1_inputs", result.clampedEq1Inputs);
    w.kv("occupancy_bytes", result.occupancyBytes);
    w.kv("objects", result.objects);
    w.kv("rehashes", result.rehashes);
    w.endObject();

    w.key("tenants");
    w.beginArray();
    for (std::size_t t = 0; t < result.tenants.size(); ++t) {
        const TenantTotals &tt = result.tenants[t];
        w.beginObject();
        w.kv("tenant", static_cast<std::uint64_t>(t));
        w.kv("hits", tt.hits);
        w.kv("misses", tt.misses);
        w.kv("shadow_hits", tt.shadowHits);
        w.kv("evictions", tt.evictions);
        w.kv("occupancy_bytes", tt.occupancyBytes);
        const std::uint64_t accesses = tt.hits + tt.misses;
        w.kv("hit_ratio",
             accesses ? static_cast<double>(tt.hits) /
                            static_cast<double>(accesses)
                      : 0.0);
        w.kv("slo_hit", t < config.tenants.size()
                            ? config.tenants[t].sloHit
                            : 0.0);
        w.endObject();
    }
    w.endArray();

    // Interval series as parallel arrays, oldest retained first.
    // When the recorder ring wrapped, the eviction rows are trimmed
    // to the same retained window so every series stays aligned.
    const telemetry::IntervalRecorder &rec = *result.recorder;
    const std::size_t n = rec.size();
    const std::size_t ev_skip =
        result.intervalEvictions.size() > n
            ? result.intervalEvictions.size() - n
            : 0;

    w.key("intervals");
    w.beginObject();
    w.key("interval");
    w.beginArray();
    for (std::size_t i = 0; i < n; ++i)
        w.value(rec.sample(i).interval);
    w.endArray();
    w.key("misses_in_interval");
    w.beginArray();
    for (std::size_t i = 0; i < n; ++i)
        w.value(rec.sample(i).missesInInterval);
    w.endArray();

    const auto doubleRows =
        [&](const char *name,
            const std::vector<double> &(*row)(
                const telemetry::IntervalSample &)) {
            w.key(name);
            w.beginArray();
            for (std::size_t i = 0; i < n; ++i) {
                w.beginArray();
                for (const double v : row(rec.sample(i)))
                    w.value(v);
                w.endArray();
            }
            w.endArray();
        };
    doubleRows("occupancy",
               +[](const telemetry::IntervalSample &s)
                   -> const std::vector<double> & {
                   return s.occupancy;
               });
    doubleRows("target",
               +[](const telemetry::IntervalSample &s)
                   -> const std::vector<double> & {
                   return s.target;
               });
    doubleRows("ev_prob",
               +[](const telemetry::IntervalSample &s)
                   -> const std::vector<double> & {
                   return s.evProb;
               });
    doubleRows("miss_frac",
               +[](const telemetry::IntervalSample &s)
                   -> const std::vector<double> & {
                   return s.missFrac;
               });

    const auto u64Rows =
        [&](const char *name,
            const std::vector<std::uint64_t> &(*row)(
                const telemetry::IntervalSample &)) {
            w.key(name);
            w.beginArray();
            for (std::size_t i = 0; i < n; ++i) {
                w.beginArray();
                for (const std::uint64_t v : row(rec.sample(i)))
                    w.value(v);
                w.endArray();
            }
            w.endArray();
        };
    u64Rows("hits",
            +[](const telemetry::IntervalSample &s)
                -> const std::vector<std::uint64_t> & {
                return s.hits;
            });
    u64Rows("misses",
            +[](const telemetry::IntervalSample &s)
                -> const std::vector<std::uint64_t> & {
                return s.misses;
            });

    w.key("evictions");
    w.beginArray();
    for (std::size_t i = 0; i < n; ++i) {
        w.beginArray();
        if (ev_skip + i < result.intervalEvictions.size())
            for (const std::uint64_t v :
                 result.intervalEvictions[ev_skip + i])
                w.value(v);
        w.endArray();
    }
    w.endArray();
    w.endObject();

    w.key("telemetry");
    w.beginObject();
    w.kv("dropped_samples", rec.droppedSamples());
    w.kv("dropped_events", rec.droppedEvents());
    w.endObject();

    if (config.timing) {
        w.key("timing");
        w.beginObject();
        w.kv("threads", config.threads);
        w.kv("wall_seconds", result.wallSeconds);
        w.kv("ops_per_sec",
             result.wallSeconds > 0.0
                 ? static_cast<double>(result.ops) /
                       result.wallSeconds
                 : 0.0);
        w.kv("latency_sample_every", kLatencySampleEvery);
        w.key("latency_us");
        w.beginArray();
        for (std::size_t t = 0; t < result.tenants.size(); ++t) {
            w.beginObject();
            w.kv("tenant", static_cast<std::uint64_t>(t));
            const std::string suffix = ".t" + std::to_string(t);
            const telemetry::Histogram *h =
                result.metrics ? &result.metrics->histogram(
                                     "serve.latency_ns" + suffix, {})
                               : nullptr;
            const double scale = 1.0 / 1000.0;
            w.kv("p50", h ? h->quantile(0.50) * scale : 0.0);
            w.kv("p95", h ? h->quantile(0.95) * scale : 0.0);
            w.kv("p99", h ? h->quantile(0.99) * scale : 0.0);
            // Bucket bounds + counts so consumers can reconstruct
            // the distribution, not just read the quantiles.
            if (h) {
                std::vector<double> bounds_us(h->bounds());
                for (double &b : bounds_us)
                    b *= scale;
                w.kv("bounds_us",
                     std::span<const double>(bounds_us));
                std::vector<std::uint64_t> buckets(
                    h->numBuckets());
                for (std::size_t i = 0; i < buckets.size(); ++i)
                    buckets[i] = h->bucketCount(i);
                w.kv("buckets",
                     std::span<const std::uint64_t>(buckets));
                // count: timed samples; requests: exact.
                w.kv("count", h->count());
                w.kv("requests",
                     result.metrics->counter("serve.requests" + suffix)
                         .value());
            }
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }

    w.endObject();
    os << '\n';
}

} // namespace prism::serve
