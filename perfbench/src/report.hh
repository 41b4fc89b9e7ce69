/**
 * @file
 * Shared plumbing of the repository benchmark: host clocks and
 * resource usage, the percentile helpers, span-cost calibration and
 * the result report every workload prints.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Worker threads every workload runs with (closed loop). */
inline constexpr unsigned kWorkers = 2;

inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

inline double
nanosBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::nano>(to - from).count();
}

/** CPU seconds of this process, all threads (user + system). */
double processCpuSeconds();

/** Peak resident set of this process in MB (2^20 bytes). */
double peakRssMb();

/**
 * A percentile is reported only when at least this many samples lie
 * beyond it, so one outlier cannot be the whole tail.
 */
inline constexpr std::uint64_t kMinSamplesBeyond = 10;

/** Samples that lie beyond the @p q quantile of @p n samples. */
std::uint64_t samplesBeyond(std::uint64_t n, double q);

/**
 * The nearest-rank @p q quantile of @p samples; nullopt when fewer
 * than kMinSamplesBeyond samples lie beyond it.
 */
std::optional<double> percentile(std::vector<double> samples,
                                 double q);

/** Median (mean of the middle pair for even counts); needs >= 1. */
double median(std::vector<double> samples);

/**
 * The @p q quantile of a bucketed distribution, interpolated inside
 * the bucket that holds the target rank exactly as
 * telemetry::Histogram::quantile does. @p counts has one entry per
 * bound plus the overflow bucket. nullopt when fewer than
 * kMinSamplesBeyond samples lie beyond the rank, or when the rank
 * falls in the overflow bucket (the histogram cannot resolve it).
 */
std::optional<double>
bucketQuantile(std::span<const double> bounds,
               std::span<const std::uint64_t> counts, double q);

/**
 * Mean wall time one empty telemetry::ScopedSpan records, in ns,
 * when @p threads threads time into one shared SpanStats as the
 * workers of a traced run do: the timer's own share of every
 * recorded span, which is subtracted per call.
 */
double calibrateSpanNs(unsigned threads);

/**
 * Mean time in ns between two back-to-back steady_clock reads: the
 * timer's own share of every interval the serve replay times.
 */
double calibrateClockPairNs();

/**
 * One benchmark run's result: metrics in the order added, the
 * operation count and the failed checks.
 */
class Report
{
  public:
    /** Add metric @p name of BENCHMARK.json to the result; @p note
     *  (sample count etc.) is printed on the human-readable line
     *  only. */
    void add(const std::string &name, double value,
             const std::string &unit, const std::string &note = "");

    /** Add a figure that only one substrate has: printed on the
     *  human-readable lines, left out of the JSON result, whose
     *  metrics every workload reports alike. */
    void detail(const std::string &name, double value,
                const std::string &unit, const std::string &note = "");

    /** Count @p n attempted operations. */
    void attempted(std::uint64_t n) { attempted_ += n; }

    /** Record a failed check that spoiled @p ops operations. */
    void fail(const std::string &what, std::uint64_t ops = 1);

    /** Require @p ok; otherwise fail(@p what, @p ops). */
    void check(bool ok, const std::string &what, std::uint64_t ops = 1)
    {
        if (!ok)
            fail(what, ops);
    }

    /** Print one line per metric and detail, then the JSON result
     *  line. */
    void print(std::ostream &os) const;

    bool correct() const { return failures_.empty(); }

  private:
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
        std::string note;
        bool inResult = true;
    };

    std::vector<Metric> metrics_;
    std::vector<std::string> failures_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
