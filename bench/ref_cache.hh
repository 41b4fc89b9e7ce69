/**
 * @file
 * The AoS reference model of the shared LLC.
 *
 * One `CacheBlock` struct per frame, one std::vector recency list per
 * set, and policy logic written straight from the policy descriptions:
 *
 *  - LRU: explicit recency list, remove-then-insert on every touch;
 *  - Random: random victim among valid ways, MRU insertion;
 *  - RRIP: 2-bit DRRIP with set dueling and aging on victim scans.
 *
 * It shares no code with SharedCache's SoA hot path beyond the Rng,
 * which both sides must consume identically. Two users:
 * tests/test_soa_equivalence.cc replays random streams through both
 * and requires identical results and state, and bench_micro_hotpath
 * --gate times both on one stream in the same binary and requires
 * the SoA cache to be at least minAccessSpeedupVsReference faster.
 */

#ifndef PRISM_BENCH_REF_CACHE_HH
#define PRISM_BENCH_REF_CACHE_HH

#include <cstdint>
#include <vector>

#include "cache/cache_block.hh"
#include "cache/shared_cache.hh"
#include "common/rng.hh"

namespace prism::microbench
{

/** The reference cache (see the file comment). */
class RefCache
{
  public:
    explicit RefCache(const CacheConfig &cfg)
        : cfg_(cfg), num_sets_(cfg.numSets()),
          blocks_(cfg.numBlocks()), order_(num_sets_),
          occupancy_(cfg.numCores, 0),
          policy_rng_(cfg.seed ^ 0x5EED5EEDULL)
    {
    }

    AccessResult
    access(CoreId core, Addr addr, bool is_store)
    {
        const std::uint32_t set = static_cast<std::uint32_t>(
            addr & (num_sets_ - 1));
        const std::size_t base =
            static_cast<std::size_t>(set) * cfg_.ways;

        for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
            CacheBlock &b = blocks_[base + w];
            if (b.valid && b.tag == addr) {
                b.dirty |= is_store;
                onHit(set, static_cast<int>(w));
                return AccessResult{true, false, invalidCore};
            }
        }

        AccessResult result{false, false, invalidCore};
        int way = invalidWay;
        for (std::uint32_t w = 0; w < cfg_.ways; ++w)
            if (!blocks_[base + w].valid) {
                way = static_cast<int>(w);
                break;
            }
        if (way == invalidWay) {
            way = victim(set);
            CacheBlock &v = blocks_[base + static_cast<std::size_t>(way)];
            result.evicted = true;
            result.evictedOwner = v.owner;
            result.writeback = v.dirty;
            --occupancy_[v.owner];
            v.valid = false;
            listRemove(set, way);
        }

        CacheBlock &b = blocks_[base + static_cast<std::size_t>(way)];
        b.tag = addr;
        b.owner = core;
        b.valid = true;
        b.dirty = is_store;
        b.region = regionManaged;
        ++occupancy_[core];
        onFill(set, way);
        return result;
    }

    const CacheBlock &
    block(std::size_t frame) const
    {
        return blocks_[frame];
    }

    const std::vector<std::uint16_t> &
    order(std::uint32_t set) const
    {
        return order_[set];
    }

    std::uint64_t occupancy(CoreId c) const { return occupancy_[c]; }

  private:
    void
    listRemove(std::uint32_t set, int way)
    {
        auto &o = order_[set];
        for (std::size_t i = 0; i < o.size(); ++i)
            if (o[i] == way) {
                o.erase(o.begin() + static_cast<std::ptrdiff_t>(i));
                return;
            }
    }

    void
    listFront(std::uint32_t set, int way)
    {
        listRemove(set, way);
        order_[set].insert(order_[set].begin(),
                           static_cast<std::uint16_t>(way));
    }

    void
    onHit(std::uint32_t set, int way)
    {
        if (cfg_.repl == ReplKind::RRIP)
            blocks_[frame(set, way)].rrpv = 0;
        else
            listFront(set, way); // LRU and Random both promote
    }

    void
    onFill(std::uint32_t set, int way)
    {
        if (cfg_.repl != ReplKind::RRIP) {
            listFront(set, way);
            return;
        }
        // DRRIP set dueling: leaders at constituency offsets 0/1.
        const std::uint32_t mod = set & 31u;
        const bool srrip_leader = (mod == 0);
        const bool brrip_leader = (mod == 1);
        if (srrip_leader && psel_ < 1023)
            ++psel_;
        if (brrip_leader && psel_ > 0)
            --psel_;
        bool use_brrip;
        if (srrip_leader)
            use_brrip = false;
        else if (brrip_leader)
            use_brrip = true;
        else
            use_brrip = psel_ > 511;
        CacheBlock &b = blocks_[frame(set, way)];
        if (use_brrip && !policy_rng_.chance(1.0 / 32.0))
            b.rrpv = 3;
        else
            b.rrpv = 2;
    }

    int
    victim(std::uint32_t set)
    {
        switch (cfg_.repl) {
          case ReplKind::LRU:
            return order_[set].back();
          case ReplKind::Random: {
            std::vector<int> valid;
            for (std::uint32_t w = 0; w < cfg_.ways; ++w)
                if (blocks_[frame(set, static_cast<int>(w))].valid)
                    valid.push_back(static_cast<int>(w));
            return valid[policy_rng_.below(valid.size())];
          }
          case ReplKind::RRIP: {
            std::uint8_t max_rrpv = 0;
            for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
                const CacheBlock &b =
                    blocks_[frame(set, static_cast<int>(w))];
                if (b.valid && b.rrpv > max_rrpv)
                    max_rrpv = b.rrpv;
            }
            for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
                CacheBlock &b =
                    blocks_[frame(set, static_cast<int>(w))];
                if (b.valid)
                    b.rrpv = static_cast<std::uint8_t>(
                        b.rrpv + (3 - max_rrpv));
            }
            for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
                const CacheBlock &b =
                    blocks_[frame(set, static_cast<int>(w))];
                if (b.valid && b.rrpv == 3)
                    return static_cast<int>(w);
            }
            return invalidWay;
          }
          default:
            return invalidWay;
        }
    }

    std::size_t
    frame(std::uint32_t set, int way) const
    {
        return static_cast<std::size_t>(set) * cfg_.ways +
               static_cast<std::size_t>(way);
    }

    CacheConfig cfg_;
    std::uint32_t num_sets_;
    std::vector<CacheBlock> blocks_;
    std::vector<std::vector<std::uint16_t>> order_;
    std::vector<std::uint64_t> occupancy_;
    Rng policy_rng_;
    unsigned psel_ = 511; // DRRIP PSEL, matches RripPolicy's start
};

} // namespace prism::microbench

#endif // PRISM_BENCH_REF_CACHE_HH
