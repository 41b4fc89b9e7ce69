/**
 * @file
 * The serve workload: timed ServeEngine sessions observed through
 * the engine's round hook, and an outside-in replay of the engine's
 * round pipeline from the store, generator and arbiter public calls.
 */

#ifndef PERFBENCH_SERVE_BENCH_HH
#define PERFBENCH_SERVE_BENCH_HH

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "report.hh"
#include "serve/serve_engine.hh"

namespace perfbench
{

/** Round-end timestamps, taken from the engine's round hook. */
class RoundClock final : public prism::serve::ServeObserver
{
  public:
    struct Round
    {
        Clock::time_point end;
        double cpuSeconds = 0.0; ///< process CPU time at the end
        std::uint64_t ops = 0;
        std::uint64_t evictions = 0;
    };

    void
    onIntervalClosed(const prism::telemetry::IntervalSample &,
                     std::span<const std::uint64_t>,
                     const prism::serve::ServeLiveState &) override
    {
    }

    void
    onRoundEnd(const prism::serve::ServeLiveState &state) override
    {
        rounds_.push_back(Round{Clock::now(), processCpuSeconds(),
                                state.ops, state.evictions});
    }

    const std::vector<Round> &rounds() const { return rounds_; }

  private:
    std::vector<Round> rounds_;
};

/**
 * Index of the first round that evicted, i.e. the round in which the
 * store reached its byte budget, from cumulative eviction counts per
 * round; nullopt when no round evicted.
 */
std::optional<std::size_t>
firstEvictingRound(std::span<const std::uint64_t> cumulative_evictions);

/** The deterministic totals of a serve run (per tenant and overall). */
struct ServeTotals
{
    std::vector<std::uint64_t> hits;
    std::vector<std::uint64_t> misses;
    std::vector<std::uint64_t> shadowHits;
    std::vector<std::uint64_t> evictions;
    std::vector<std::uint64_t> occupancyBytes;
    std::uint64_t ops = 0;
    std::uint64_t gets = 0;
    std::uint64_t puts = 0;
    std::uint64_t victimlessEvictions = 0;
    std::uint64_t recomputes = 0;
    std::uint64_t objects = 0;
    std::uint64_t rehashes = 0;

    bool operator==(const ServeTotals &) const = default;
};

ServeTotals totalsOf(const prism::serve::ServeResult &result);

/** What the replay measured: phase times, call costs and counts. */
struct ReplayStats
{
    ServeTotals totals;

    double wallSeconds = 0.0;  ///< whole replay, set-up included
    double setupSeconds = 0.0; ///< store, generator, arbiter, pool
    // Phase wall times on the driving thread.
    double fillSeconds = 0.0;
    double mergeSeconds = 0.0;
    double partitionSeconds = 0.0;
    double applySeconds = 0.0;
    double evictSeconds = 0.0;
    double controlSeconds = 0.0;
    // Summed busy time of the pool tasks of the parallel phases.
    double fillBusySeconds = 0.0;
    double applyBusySeconds = 0.0;
    std::uint64_t poolTasks = 0; ///< fill and apply tasks submitted

    // Per-call timer sums (timer cost included) and call counts.
    double getNs = 0.0;
    double putNs = 0.0;
    double evictNs = 0.0;
    double drawNs = 0.0;
    double recomputeNs = 0.0;
    std::uint64_t getCalls = 0;
    std::uint64_t putCalls = 0; ///< writes + read-through fills
    std::uint64_t evictCalls = 0;
    std::uint64_t draws = 0;

    std::uint64_t getHits = 0;
    /** Get hits whose bytes differ from what the engine puts. */
    std::uint64_t valueMismatches = 0;
};

/**
 * Replay the engine's round pipeline for @p config (op budget
 * required) from public calls, timing each phase and call.
 */
ReplayStats replayServe(const prism::serve::ServeConfig &config);

/** Run the serve-read workload into @p report. */
void runServe(std::uint64_t seed, double seconds, bool trace,
              Report &report);

} // namespace perfbench

#endif // PERFBENCH_SERVE_BENCH_HH
