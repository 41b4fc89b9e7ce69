/**
 * @file
 * Sharded in-memory object store: the serving data plane.
 *
 * A key-value store split into N lock-striped shards. Each shard is
 * an open-addressing hash table (linear probing, tombstones,
 * power-of-two slots) whose slots double as nodes of per-tenant
 * intrusive LRU lists, so recency is tracked per tenant per shard
 * with zero extra allocation. Byte-level and access accounting is
 * kept per shard, per tenant, next to the state it counts: every
 * counter is written only under the shard lock its operation already
 * holds, so a get or put writes no cache line another shard's worker
 * writes, and the store-wide accessors sum over the shards.
 *
 * Each shard additionally keeps a per-tenant *ghost list* (a bounded
 * FIFO of recently evicted keys, serve/ghost_list.hh): a miss whose
 * key is still in the ghost list is a "shadow hit" — a hit the
 * tenant would have had with more capacity — which is exactly the
 * demand signal the hit-maximising target policy feeds on (the
 * serving analogue of the paper's shadow tags).
 *
 * Concurrency contract: get/put are thread-safe (per-shard mutex;
 * the TSan hammer test exercises this) and evictOneFrom is called
 * only from the engine's sequential eviction pass. lockShard(k)
 * returns a ShardAccess that holds shard k's mutex until it is
 * destroyed; its get/put run the same bodies as the store's without
 * re-locking, so a caller that owns a whole shard slice (the
 * engine's apply task) locks once per slice rather than once per
 * request. A ShardAccess refuses a key that routes to another shard,
 * and its owner must not call the store's own get/put/evictOneFrom
 * on the same shard while holding it (the mutex is not recursive).
 * The aggregate
 * readers (hits, misses, shadowHits, tenantBytes, totalBytes,
 * objectCount, rehashes) take no lock and are safe to call at any
 * time, but their sums are exact only while no get or put is in
 * flight; the engine reads them only in its sequential sections.
 * With timing on, the engine times one request in 64 of each shard
 * task, with a clock read on each side of its get/put; untimed
 * requests read no clock (docs/SERVING.md, "Request latency").
 * Determinism: identical operation sequences per shard produce
 * identical state at any thread count — nothing in a shard depends
 * on global order, only on its own.
 *
 * Allocation: an eviction frees nothing. The evicted slot keeps its
 * value buffer for the next object that lands in it, so buffers
 * allocated on a worker are released on a worker (when a rehash
 * drops the tombstones holding them), never by the eviction pass on
 * the engine thread.
 */

#ifndef PRISM_SERVE_SHARDED_STORE_HH
#define PRISM_SERVE_SHARDED_STORE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/rng.hh"
#include "serve/ghost_list.hh"
#include "serve/tenant_arbiter.hh"

namespace prism::serve
{

/** Sizing knobs for the store. */
struct StoreConfig
{
    std::uint64_t capacityBytes = 64ull << 20;
    /** Lock stripes; rounded up to a power of two. */
    std::uint32_t shards = 64;
    std::uint32_t tenants = 1;
    /** Ghost-list keys retained per tenant per shard. */
    std::uint32_t ghostPerTenant = 1024;
    /** Initial hash-table slots per shard (power of two). */
    std::uint32_t initialSlots = 1024;
};

/** The sharded object store; implements the arbiter's TenantPlane. */
class ShardedStore final : public TenantPlane
{
  public:
    explicit ShardedStore(const StoreConfig &config);
    ~ShardedStore() override;

    ShardedStore(const ShardedStore &) = delete;
    ShardedStore &operator=(const ShardedStore &) = delete;

    struct GetResult
    {
        bool hit = false;
        /** Miss whose key was still on the tenant's ghost list. */
        bool shadowHit = false;
    };

    /**
     * Look @p key up for @p tenant. A hit refreshes the object's
     * per-tenant LRU position and, when @p value_out is non-null,
     * copies the value bytes out. A miss checks the ghost list and
     * bumps the tenant's hit/miss/shadow counters accordingly.
     */
    GetResult get(std::uint32_t tenant, std::uint64_t key,
                  std::vector<std::uint8_t> *value_out = nullptr);

    /**
     * Insert or overwrite @p key for @p tenant with @p value bytes.
     * The object becomes the tenant's most recently used; a key
     * resurrected from the ghost list is dropped from it. Never
     * evicts — capacity is enforced by the engine's eviction pass.
     */
    void put(std::uint32_t tenant, std::uint64_t key,
             std::span<const std::uint8_t> value);

    /** Shard @p key routes to (for the engine's batch partition). */
    std::uint32_t
    shardOf(std::uint32_t tenant, std::uint64_t key) const
    {
        return shardOfHash(slotHash(tenant, key));
    }

    class ShardAccess;

    /** Lock shard @p shard for a run of get/put calls on its keys. */
    ShardAccess lockShard(std::uint32_t shard);

    std::uint32_t shardCount() const
    {
        return static_cast<std::uint32_t>(shards_.size());
    }
    std::uint64_t capacityBytes() const { return capacity_bytes_; }

    // --- TenantPlane -----------------------------------------------
    std::uint32_t tenantCount() const override { return tenants_; }
    std::uint64_t tenantBytes(std::uint32_t tenant) const override
    {
        return sumTenant(&TenantState::bytes, tenant);
    }
    std::uint64_t totalBytes() const override
    {
        return sumShards(&Shard::bytes);
    }
    std::uint64_t objectCount() const override
    {
        return sumShards(&Shard::used);
    }
    std::uint64_t evictOneFrom(std::uint32_t tenant) override;

    // --- CachePlane (via TenantPlane) -------------------------------
    std::uint64_t capacityUnits() const override
    {
        return capacity_bytes_;
    }
    double standAloneHits(std::uint32_t tenant) const override
    {
        return static_cast<double>(shadowHits(tenant));
    }

    // --- per-tenant access statistics (monotonic) -------------------
    std::uint64_t hits(std::uint32_t tenant) const
    {
        return sumTenant(&TenantState::hits, tenant);
    }
    std::uint64_t misses(std::uint32_t tenant) const
    {
        return sumTenant(&TenantState::misses, tenant);
    }
    std::uint64_t shadowHits(std::uint32_t tenant) const
    {
        return sumTenant(&TenantState::shadowHits, tenant);
    }

    /** Hash-table growth/compaction events across all shards. */
    std::uint64_t rehashes() const
    {
        return sumShards(&Shard::rehashes);
    }

  private:
    static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

    enum class SlotState : std::uint8_t { Empty, Full, Tombstone };

    struct Slot
    {
        std::uint64_t key = 0;
        std::uint32_t tenant = 0;
        SlotState state = SlotState::Empty;
        /** Per-tenant LRU links (slot indices within the shard). */
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
        std::vector<std::uint8_t> value;
    };

    /**
     * A counter written only under its shard's lock and read without
     * it. The lock orders the writers, so add() is a plain load and
     * store rather than a locked read-modify-write.
     */
    class ShardCounter
    {
      public:
        void
        add(std::uint64_t delta)
        {
            value_.store(value_.load(std::memory_order_relaxed) + delta,
                         std::memory_order_relaxed);
        }
        void sub(std::uint64_t delta) { add(0 - delta); }
        std::uint64_t
        get() const
        {
            return value_.load(std::memory_order_relaxed);
        }

      private:
        std::atomic<std::uint64_t> value_{0};
    };

    /** One tenant's state in one shard, on cache lines of its own. */
    struct alignas(64) TenantState
    {
        std::uint32_t lruHead = kNil; ///< MRU end
        std::uint32_t lruTail = kNil; ///< LRU end
        ShardCounter hits;
        ShardCounter misses;
        ShardCounter shadowHits;
        ShardCounter bytes;
        GhostList ghost;
    };

    struct alignas(64) Shard
    {
        mutable std::mutex mutex;
        std::vector<Slot> slots; ///< power-of-two size
        ShardCounter used;       ///< Full slots
        std::size_t filled = 0;  ///< Full + Tombstone slots
        ShardCounter bytes;      ///< all tenants
        ShardCounter rehashes;
        /** Per-tenant state, indexed by tenant id. */
        std::unique_ptr<TenantState[]> tenant;
    };

    std::uint64_t
    sumShards(ShardCounter Shard::*counter) const
    {
        std::uint64_t total = 0;
        for (const Shard &shard : shards_)
            total += (shard.*counter).get();
        return total;
    }

    std::uint64_t
    sumTenant(ShardCounter TenantState::*counter,
              std::uint32_t tenant) const
    {
        std::uint64_t total = 0;
        for (const Shard &shard : shards_)
            total += (shard.tenant[tenant].*counter).get();
        return total;
    }

    static std::uint64_t
    slotHash(std::uint32_t tenant, std::uint64_t key)
    {
        return Rng::mix64(key ^ Rng::mix64(0x7E9A9C1B2D3E4F50ULL +
                                           tenant));
    }

    std::uint32_t
    shardOfHash(std::uint64_t hash) const
    {
        return static_cast<std::uint32_t>(hash >> shard_shift_ &
                                          (shards_.size() - 1));
    }

    /** Find @p key's Full slot; kNil when absent. */
    std::uint32_t findSlot(const Shard &shard, std::uint32_t tenant,
                           std::uint64_t key,
                           std::uint64_t hash) const;

    void unlink(Shard &shard, std::uint32_t idx);
    void linkFront(Shard &shard, std::uint32_t idx);
    void growShard(Shard &shard);
    GetResult getLocked(Shard &shard, std::uint32_t tenant,
                        std::uint64_t key, std::uint64_t hash,
                        std::vector<std::uint8_t> *value_out);
    void insertLocked(Shard &shard, std::uint32_t tenant,
                      std::uint64_t key, std::uint64_t hash,
                      std::span<const std::uint8_t> value);

    std::uint64_t capacity_bytes_;
    std::uint32_t tenants_;
    std::uint32_t ghost_per_tenant_;
    std::uint32_t shard_shift_; ///< 64 - log2(shards)

    std::vector<Shard> shards_;

    /** Per-tenant round-robin shard cursor for evictOneFrom (only
     *  touched by the sequential eviction pass). */
    std::vector<std::uint32_t> evict_cursor_;
};

/**
 * One shard of a ShardedStore, locked for as long as this object
 * lives. get/put behave exactly as the store's own; a key that
 * routes to another shard is a programming error (panic).
 */
class ShardedStore::ShardAccess
{
  public:
    GetResult get(std::uint32_t tenant, std::uint64_t key,
                  std::vector<std::uint8_t> *value_out = nullptr);
    void put(std::uint32_t tenant, std::uint64_t key,
             std::span<const std::uint8_t> value);

  private:
    friend class ShardedStore;
    ShardAccess(ShardedStore &store, std::uint32_t shard);

    /** @p key's hash, after checking it routes to this shard. */
    std::uint64_t checkedHash(std::uint32_t tenant,
                              std::uint64_t key) const;

    ShardedStore &store_;
    std::uint32_t index_;
    Shard &shard_;
    std::unique_lock<std::mutex> lock_;
};

} // namespace prism::serve

#endif // PRISM_SERVE_SHARDED_STORE_HH
