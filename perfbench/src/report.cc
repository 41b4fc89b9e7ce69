#include "report.hh"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <iostream>
#include <thread>

#include "telemetry/metrics_registry.hh"
#include "telemetry/span.hh"

namespace perfbench
{

namespace
{

/** 1-based nearest rank of quantile @p q among @p n samples. */
std::uint64_t
nearestRank(std::uint64_t n, double q)
{
    if (n == 0)
        return 0;
    // The epsilon keeps exact products (0.95 * 200) from rounding up
    // a whole rank through binary representation error.
    const double exact = q * static_cast<double>(n) - 1e-9;
    const auto rank = static_cast<std::uint64_t>(
        std::max(1.0, std::ceil(exact)));
    return std::min(rank, n);
}

std::string
formatNumber(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

} // namespace

double
processCpuSeconds()
{
    // Exact to the nanosecond, where getrusage() may count ticks.
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

std::uint64_t
samplesBeyond(std::uint64_t n, double q)
{
    return n - nearestRank(n, q);
}

std::optional<double>
percentile(std::vector<double> samples, double q)
{
    const std::uint64_t n = samples.size();
    if (n == 0 || samplesBeyond(n, q) < kMinSamplesBeyond)
        return std::nullopt;
    const std::size_t idx = nearestRank(n, q) - 1;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(idx),
                     samples.end());
    return samples[idx];
}

double
median(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::optional<double>
bucketQuantile(std::span<const double> bounds,
               std::span<const std::uint64_t> counts, double q)
{
    if (counts.size() != bounds.size() + 1)
        return std::nullopt;
    std::uint64_t total = 0;
    for (const std::uint64_t c : counts)
        total += c;
    if (total == 0 ||
        static_cast<double>(total) * (1.0 - q) <
            static_cast<double>(kMinSamplesBeyond))
        return std::nullopt;

    const double rank = q * static_cast<double>(total);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
        if (counts[i] == 0)
            continue;
        const std::uint64_t below = cumulative;
        cumulative += counts[i];
        if (rank > static_cast<double>(cumulative))
            continue;
        const double lo = i == 0 ? 0.0 : bounds[i - 1];
        const double frac = (rank - static_cast<double>(below)) /
                            static_cast<double>(counts[i]);
        return lo + (bounds[i] - lo) * std::max(0.0, frac);
    }
    return std::nullopt;
}

double
calibrateSpanNs(unsigned threads)
{
    constexpr std::uint64_t kCalls = 1'000'000;
    prism::telemetry::MetricsRegistry registry;
    const prism::telemetry::SpanStats stats =
        registry.span("calibration");
    threads = std::max(1u, threads);

    std::atomic<unsigned> ready{0};
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t)
        workers.emplace_back([&] {
            ready.fetch_add(1);
            while (ready.load() < threads) {
            }
            for (std::uint64_t i = 0; i < kCalls; ++i) {
                PRISM_SPAN(stats);
            }
        });
    for (std::thread &w : workers)
        w.join();
    return static_cast<double>(stats.wallNanos->value()) /
           static_cast<double>(stats.calls->value());
}

double
calibrateClockPairNs()
{
    constexpr std::uint64_t kPairs = 1'000'000;
    Clock::duration inside{};
    for (std::uint64_t i = 0; i < kPairs; ++i) {
        const auto a = Clock::now();
        inside += Clock::now() - a;
    }
    return std::chrono::duration<double, std::nano>(inside).count() /
           static_cast<double>(kPairs);
}

void
Report::add(const std::string &name, double value,
            const std::string &unit, const std::string &note)
{
    if (!std::isfinite(value)) {
        fail("metric " + name + " is not finite");
        value = 0.0;
    }
    metrics_.push_back(Metric{name, value, unit, note});
}

void
Report::detail(const std::string &name, double value,
               const std::string &unit, const std::string &note)
{
    add(name, value, unit, note);
    metrics_.back().inResult = false;
}

void
Report::fail(const std::string &what, std::uint64_t ops)
{
    std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
    failures_.push_back(what);
    failed_ += std::max<std::uint64_t>(1, ops);
}

void
Report::print(std::ostream &os) const
{
    for (const Metric &m : metrics_) {
        os << (m.inResult ? "  " : "  detail: ") << m.name << " = "
           << formatNumber(m.value) << " " << m.unit;
        if (!m.note.empty())
            os << "  (" << m.note << ")";
        os << "\n";
    }
    // Failed operations can never exceed those attempted.
    const std::uint64_t attempted = std::max<std::uint64_t>(
        {attempted_, failed_, std::uint64_t{1}});
    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
    const char *sep = "";
    for (const Metric &m : metrics_) {
        if (!m.inResult)
            continue;
        os << sep << "\"" << m.name << "\": {\"value\": "
           << formatNumber(m.value) << ", \"unit\": \"" << m.unit
           << "\"}";
        sep = ", ";
    }
    os << "}}" << std::endl;
}

} // namespace perfbench
