#include "workload/trace_generator.hh"

#include <charconv>
#include <fstream>
#include <sstream>
#include <string_view>

#include "common/prism_assert.hh"

namespace prism
{

namespace
{

/**
 * Parse one address token as a C integer literal: 0x-prefixed hex,
 * 0-prefixed octal, else decimal. No sign and nothing after it.
 */
bool
parseAddress(std::string_view token, Addr &out)
{
    int base = 10;
    if (token.size() > 1 && token[0] == '0') {
        const bool hex = token[1] == 'x' || token[1] == 'X';
        base = hex ? 16 : 8;
        token.remove_prefix(hex ? 2 : 1);
    }
    const char *end = token.data() + token.size();
    const auto [ptr, ec] =
        std::from_chars(token.data(), end, out, base);
    return !token.empty() && ec == std::errc() && ptr == end;
}

} // namespace

TraceFileGenerator::TraceFileGenerator(const std::string &path,
                                       std::uint32_t stream_id)
    : stream_id_(stream_id)
{
    std::ifstream in(path);
    fatalIf(!in, "TraceFileGenerator: cannot open '" + path + "'");

    std::string line;
    while (std::getline(in, line)) {
        // Strip comments and whitespace-only lines.
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream ls(line);
        std::string token;
        if (!(ls >> token))
            continue;
        Addr block = 0;
        if (!parseAddress(token, block))
            fatal("TraceFileGenerator: bad address '" + token +
                  "' in " + path);
        blocks_.push_back(block);
    }
    fatalIf(blocks_.empty(),
            "TraceFileGenerator: no addresses in '" + path + "'");
}

TraceFileGenerator::TraceFileGenerator(std::vector<Addr> blocks,
                                       std::uint32_t stream_id)
    : blocks_(std::move(blocks)), stream_id_(stream_id)
{
    fatalIf(blocks_.empty(), "TraceFileGenerator: empty trace");
}

Addr
TraceFileGenerator::next()
{
    const Addr block = blocks_[pos_];
    if (++pos_ == blocks_.size()) {
        pos_ = 0;
        ++loops_;
    }
    // Tag with the stream id; keep the low 40 bits of the address so
    // set mapping follows the trace.
    return (static_cast<Addr>(stream_id_) << 40) |
           (block & 0xFFFFFFFFFFULL);
}

} // namespace prism
