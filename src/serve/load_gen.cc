#include "serve/load_gen.hh"

#include "common/cli.hh"
#include "common/prism_assert.hh"

namespace prism::serve
{

Status
parseTenantSpec(std::string_view text, TenantSpec &out)
{
    while (!text.empty()) {
        const std::size_t comma = text.find(',');
        const std::string_view field =
            comma == std::string_view::npos ? text
                                            : text.substr(0, comma);
        text = comma == std::string_view::npos
                   ? std::string_view()
                   : text.substr(comma + 1);
        if (field.empty())
            continue;

        const std::size_t eq = field.find('=');
        if (eq == std::string_view::npos)
            return Status::error("tenant spec field '" +
                                 std::string(field) +
                                 "' is not key=value");
        const std::string_view key = field.substr(0, eq);
        const std::string_view value = field.substr(eq + 1);

        const std::string name(key);
        Status st;
        if (key == "keys")
            st = cli::parseUnsigned(name, value, out.keys, 1);
        else if (key == "zipf")
            st = cli::parseDouble(name, value, out.zipf, 0.0);
        else if (key == "get")
            st = cli::parseDouble(name, value, out.getFrac, 0.0, 1.0);
        else if (key == "vmin")
            st = cli::parseUnsigned(name, value, out.vmin, 1);
        else if (key == "vmax")
            st = cli::parseUnsigned(name, value, out.vmax, 1);
        else if (key == "weight")
            st = cli::parseDouble(name, value, out.weight, 0.0);
        else if (key == "slo-hit")
            st = cli::parseDouble(name, value, out.sloHit, 0.0, 1.0);
        else if (key == "floor") {
            st = cli::parseDouble(name, value, out.floorFrac, 0.0, 1.0);
            if (st.ok() && out.floorFrac == 1.0)
                st = Status::error("floor must be below 1 (got '" +
                                   std::string(value) + "')");
        } else
            return Status::error("unknown tenant spec key '" + name +
                                 "'");
        if (!st.ok())
            return st;
    }
    if (out.vmin > out.vmax)
        return Status::error("tenant spec has vmin > vmax");
    return Status();
}

LoadGen::LoadGen(std::vector<TenantSpec> specs,
                 std::uint32_t streams, std::uint64_t seed)
    : specs_(std::move(specs))
{
    fatalIf(specs_.empty(), "LoadGen: no tenants");
    fatalIf(streams == 0, "LoadGen: no streams");
    zipf_.reserve(specs_.size());
    for (const TenantSpec &spec : specs_)
        zipf_.emplace_back(spec.keys, spec.zipf);
    rngs_.reserve(streams);
    for (std::uint32_t s = 0; s < streams; ++s)
        rngs_.emplace_back(deriveSeed(seed, 0x57AE0000ull + s));
    value_salt_ = deriveSeed(seed, "value-size");
}

std::uint32_t
LoadGen::valueBytes(std::uint32_t tenant, std::uint64_t key) const
{
    const TenantSpec &spec = specs_[tenant];
    const std::uint64_t span = spec.vmax - spec.vmin + 1;
    const std::uint64_t h = Rng::mix64(
        value_salt_ ^ Rng::mix64(key + 0x9E3779B97F4A7C15ULL *
                                           (tenant + 1)));
    return spec.vmin + static_cast<std::uint32_t>(h % span);
}

void
LoadGen::fill(std::uint32_t stream, std::span<Request> batch)
{
    Rng &rng = rngs_[stream];
    const auto tenants =
        static_cast<std::uint32_t>(specs_.size());
    for (Request &req : batch) {
        req.tenant =
            tenants == 1
                ? 0
                : static_cast<std::uint32_t>(rng.below(tenants));
        req.key = zipf_[req.tenant].next(rng);
        req.isPut = !rng.chance(specs_[req.tenant].getFrac);
        req.valueBytes = valueBytes(req.tenant, req.key);
    }
}

} // namespace prism::serve
