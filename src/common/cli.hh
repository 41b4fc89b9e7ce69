/**
 * @file
 * Checked number parsing for command-line flags and the value lists
 * they carry (`--tenant key=value,...`, `--tolerance NAME=X`).
 *
 * Every tool keeps its own flag loop and usage text; these helpers
 * parse one value and check it against an inclusive range, returning
 * a Status the caller turns into a usage error (exit 2) before any
 * work starts. Both accept exactly what std::from_chars accepts: no
 * leading blanks, no '+', nothing after the number. Integers are
 * decimal digits only, so "-1" is an error rather than 2^64-1, and a
 * value that does not fit the target type is out of range rather
 * than truncated. Doubles must be finite: "nan" and "inf" parse but
 * lie outside every range.
 */

#ifndef PRISM_COMMON_CLI_HH
#define PRISM_COMMON_CLI_HH

#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/status.hh"

namespace prism::cli
{

/**
 * Parse @p text as a decimal integer in [@p lo, @p hi] into @p out;
 * @p name labels the diagnostic. @p out is untouched on error.
 */
template <typename UInt>
Status
parseUnsigned(std::string_view name, std::string_view text, UInt &out,
              std::type_identity_t<UInt> lo = 0,
              std::type_identity_t<UInt> hi =
                  std::numeric_limits<UInt>::max())
{
    static_assert(std::is_unsigned_v<UInt> &&
                  !std::is_same_v<UInt, bool>);
    UInt v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || ptr != end || ec == std::errc::invalid_argument)
        return Status::error("invalid number '" + std::string(text) +
                             "' for " + std::string(name));
    if (ec == std::errc::result_out_of_range || v < lo || v > hi)
        return Status::error(std::string(name) + " must be in [" +
                             std::to_string(lo) + ", " +
                             std::to_string(hi) + "] (got '" +
                             std::string(text) + "')");
    out = v;
    return Status();
}

/**
 * Parse @p text as a finite double in [@p lo, @p hi] into @p out;
 * @p name labels the diagnostic. @p out is untouched on error.
 */
inline Status
parseDouble(std::string_view name, std::string_view text, double &out,
            double lo = std::numeric_limits<double>::lowest(),
            double hi = std::numeric_limits<double>::max())
{
    double v = 0.0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || ptr != end || ec == std::errc::invalid_argument)
        return Status::error("invalid number '" + std::string(text) +
                             "' for " + std::string(name));
    if (ec == std::errc() && std::isfinite(v) && v >= lo && v <= hi) {
        out = v;
        return Status();
    }
    std::ostringstream msg;
    msg << name << " must be ";
    if (hi != std::numeric_limits<double>::max())
        msg << "in [" << lo << ", " << hi << "]";
    else if (lo != std::numeric_limits<double>::lowest())
        msg << "a finite number >= " << lo;
    else
        msg << "a finite number";
    msg << " (got '" << text << "')";
    return Status::error(msg.str());
}

} // namespace prism::cli

#endif // PRISM_COMMON_CLI_HH
