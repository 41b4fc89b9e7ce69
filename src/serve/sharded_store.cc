#include "serve/sharded_store.hh"

#include <algorithm>
#include <bit>

#include "common/prism_assert.hh"

namespace prism::serve
{

namespace
{

std::uint64_t
ceilPow2(std::uint64_t v)
{
    return std::bit_ceil(std::max<std::uint64_t>(1, v));
}

} // namespace

ShardedStore::ShardedStore(const StoreConfig &config)
    : capacity_bytes_(config.capacityBytes),
      tenants_(config.tenants),
      ghost_per_tenant_(config.ghostPerTenant)
{
    fatalIf(tenants_ == 0, "ShardedStore: no tenants");
    fatalIf(config.shards > (1u << 31), "ShardedStore: too many shards");
    const auto num_shards = static_cast<std::uint32_t>(
        ceilPow2(std::max<std::uint32_t>(1, config.shards)));
    shard_shift_ =
        64u - static_cast<std::uint32_t>(
                  std::bit_width(num_shards) - 1);
    if (num_shards == 1)
        shard_shift_ = 63; // one shard; any bit goes to shard 0 only
                           // via the explicit mask below

    shards_ = std::vector<Shard>(num_shards);
    const auto slots = static_cast<std::size_t>(
        ceilPow2(std::max<std::uint32_t>(16, config.initialSlots)));
    for (Shard &shard : shards_) {
        shard.slots.resize(slots);
        shard.tenant = std::make_unique<TenantState[]>(tenants_);
    }
    evict_cursor_.assign(tenants_, 0);
}

ShardedStore::~ShardedStore() = default;

std::uint32_t
ShardedStore::findSlot(const Shard &shard, std::uint32_t tenant,
                       std::uint64_t key, std::uint64_t hash) const
{
    const std::size_t mask = shard.slots.size() - 1;
    for (std::size_t i = hash & mask;;
         i = (i + 1) & mask) {
        const Slot &slot = shard.slots[i];
        if (slot.state == SlotState::Empty)
            return kNil;
        if (slot.state == SlotState::Full && slot.key == key &&
            slot.tenant == tenant)
            return static_cast<std::uint32_t>(i);
    }
}

void
ShardedStore::unlink(Shard &shard, std::uint32_t idx)
{
    Slot &slot = shard.slots[idx];
    const std::uint32_t t = slot.tenant;
    if (slot.prev != kNil)
        shard.slots[slot.prev].next = slot.next;
    else
        shard.tenant[t].lruHead = slot.next;
    if (slot.next != kNil)
        shard.slots[slot.next].prev = slot.prev;
    else
        shard.tenant[t].lruTail = slot.prev;
    slot.prev = slot.next = kNil;
}

void
ShardedStore::linkFront(Shard &shard, std::uint32_t idx)
{
    Slot &slot = shard.slots[idx];
    TenantState &ts = shard.tenant[slot.tenant];
    slot.prev = kNil;
    slot.next = ts.lruHead;
    if (slot.next != kNil)
        shard.slots[slot.next].prev = idx;
    else
        ts.lruTail = idx;
    ts.lruHead = idx;
}

void
ShardedStore::growShard(Shard &shard)
{
    // Double when genuinely full; a rehash at the same size just
    // purges tombstones (deletes can dominate growth).
    const std::size_t old_size = shard.slots.size();
    const std::size_t new_size =
        shard.used.get() * 2 >= old_size ? old_size * 2 : old_size;

    // Per-tenant MRU->LRU orders survive the move by reinsertion in
    // order: walk each old chain head to tail, move the slot into
    // the new table, and append to the rebuilt chain's tail.
    std::vector<Slot> old_slots(new_size);
    old_slots.swap(shard.slots);
    shard.filled = shard.used.get();

    const std::size_t mask = new_size - 1;
    for (std::uint32_t t = 0; t < tenants_; ++t) {
        TenantState &ts = shard.tenant[t];
        std::uint32_t old_idx = ts.lruHead;
        ts.lruHead = ts.lruTail = kNil;
        while (old_idx != kNil) {
            Slot &old_slot = old_slots[old_idx];
            const std::uint32_t next_old = old_slot.next;

            std::size_t i =
                slotHash(old_slot.tenant, old_slot.key) & mask;
            while (shard.slots[i].state == SlotState::Full)
                i = (i + 1) & mask;
            Slot &dst = shard.slots[i];
            dst.key = old_slot.key;
            dst.tenant = old_slot.tenant;
            dst.state = SlotState::Full;
            dst.value = std::move(old_slot.value);
            dst.prev = ts.lruTail;
            dst.next = kNil;
            const auto new_idx = static_cast<std::uint32_t>(i);
            if (dst.prev != kNil)
                shard.slots[dst.prev].next = new_idx;
            else
                ts.lruHead = new_idx;
            ts.lruTail = new_idx;

            old_idx = next_old;
        }
    }
    shard.rehashes.add(1);
}

void
ShardedStore::insertLocked(Shard &shard, std::uint32_t tenant,
                           std::uint64_t key, std::uint64_t hash,
                           std::span<const std::uint8_t> value)
{
    // Keep the probe chains short: grow/compact at 70% occupied
    // (tombstones included — they lengthen probes like live slots).
    if ((shard.filled + 1) * 10 >= shard.slots.size() * 7)
        growShard(shard);

    const std::size_t mask = shard.slots.size() - 1;
    std::size_t target = SIZE_MAX;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
        Slot &slot = shard.slots[i];
        if (slot.state == SlotState::Empty) {
            if (target == SIZE_MAX) {
                target = i;
                ++shard.filled;
            }
            break;
        }
        if (slot.state == SlotState::Tombstone) {
            if (target == SIZE_MAX)
                target = i;
            continue;
        }
        if (slot.key == key && slot.tenant == tenant) {
            // Overwrite in place: adjust byte accounting and
            // refresh recency.
            const auto old_bytes =
                static_cast<std::uint64_t>(slot.value.size());
            const auto new_bytes =
                static_cast<std::uint64_t>(value.size());
            slot.value.assign(value.begin(), value.end());
            shard.tenant[tenant].bytes.add(new_bytes - old_bytes);
            shard.bytes.add(new_bytes - old_bytes);
            unlink(shard, static_cast<std::uint32_t>(i));
            linkFront(shard, static_cast<std::uint32_t>(i));
            return;
        }
    }

    Slot &slot = shard.slots[target];
    slot.key = key;
    slot.tenant = tenant;
    slot.state = SlotState::Full;
    // A tombstone's buffer is reused when it is large enough.
    slot.value.assign(value.begin(), value.end());
    shard.used.add(1);
    linkFront(shard, static_cast<std::uint32_t>(target));

    const auto bytes = static_cast<std::uint64_t>(value.size());
    TenantState &ts = shard.tenant[tenant];
    ts.bytes.add(bytes);
    shard.bytes.add(bytes);

    // A key coming back to life stops being a ghost.
    ts.ghost.erase(key);
}

ShardedStore::GetResult
ShardedStore::getLocked(Shard &shard, std::uint32_t tenant,
                        std::uint64_t key, std::uint64_t hash,
                        std::vector<std::uint8_t> *value_out)
{
    GetResult result;
    TenantState &ts = shard.tenant[tenant];
    const std::uint32_t idx = findSlot(shard, tenant, key, hash);
    if (idx != kNil) {
        result.hit = true;
        ts.hits.add(1);
        unlink(shard, idx);
        linkFront(shard, idx);
        if (value_out)
            *value_out = shard.slots[idx].value;
    } else {
        ts.misses.add(1);
        result.shadowHit = ts.ghost.contains(key);
        if (result.shadowHit)
            ts.shadowHits.add(1);
    }
    return result;
}

ShardedStore::GetResult
ShardedStore::get(std::uint32_t tenant, std::uint64_t key,
                  std::vector<std::uint8_t> *value_out)
{
    panicIf(tenant >= tenants_, "ShardedStore::get: bad tenant");
    const std::uint64_t hash = slotHash(tenant, key);
    Shard &shard = shards_[shardOfHash(hash)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    return getLocked(shard, tenant, key, hash, value_out);
}

void
ShardedStore::put(std::uint32_t tenant, std::uint64_t key,
                  std::span<const std::uint8_t> value)
{
    panicIf(tenant >= tenants_, "ShardedStore::put: bad tenant");
    const std::uint64_t hash = slotHash(tenant, key);
    Shard &shard = shards_[shardOfHash(hash)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    insertLocked(shard, tenant, key, hash, value);
}

ShardedStore::ShardAccess
ShardedStore::lockShard(std::uint32_t shard)
{
    panicIf(shard >= shards_.size(),
            "ShardedStore::lockShard: bad shard");
    return ShardAccess(*this, shard);
}

ShardedStore::ShardAccess::ShardAccess(ShardedStore &store,
                                       std::uint32_t shard)
    : store_(store), index_(shard), shard_(store.shards_[shard]),
      lock_(shard_.mutex)
{
}

std::uint64_t
ShardedStore::ShardAccess::checkedHash(std::uint32_t tenant,
                                       std::uint64_t key) const
{
    panicIf(tenant >= store_.tenants_, "ShardAccess: bad tenant");
    const std::uint64_t hash = slotHash(tenant, key);
    panicIf(store_.shardOfHash(hash) != index_,
            "ShardAccess: key routes to another shard");
    return hash;
}

ShardedStore::GetResult
ShardedStore::ShardAccess::get(std::uint32_t tenant, std::uint64_t key,
                               std::vector<std::uint8_t> *value_out)
{
    return store_.getLocked(shard_, tenant, key,
                            checkedHash(tenant, key), value_out);
}

void
ShardedStore::ShardAccess::put(std::uint32_t tenant, std::uint64_t key,
                               std::span<const std::uint8_t> value)
{
    store_.insertLocked(shard_, tenant, key, checkedHash(tenant, key),
                        value);
}

std::uint64_t
ShardedStore::evictOneFrom(std::uint32_t tenant)
{
    panicIf(tenant >= tenants_,
            "ShardedStore::evictOneFrom: bad tenant");
    const std::size_t num_shards = shards_.size();
    std::uint32_t cursor = evict_cursor_[tenant];

    for (std::size_t attempt = 0; attempt < num_shards; ++attempt) {
        Shard &shard = shards_[cursor];
        const std::uint32_t next_cursor = static_cast<std::uint32_t>(
            (cursor + 1) & (num_shards - 1));
        std::lock_guard<std::mutex> lock(shard.mutex);
        TenantState &ts = shard.tenant[tenant];
        const std::uint32_t tail = ts.lruTail;
        if (tail == kNil) {
            cursor = next_cursor;
            continue;
        }

        Slot &slot = shard.slots[tail];
        const auto bytes =
            static_cast<std::uint64_t>(slot.value.size());
        unlink(shard, tail);
        ts.ghost.push(slot.key, ghost_per_tenant_);
        slot.state = SlotState::Tombstone;
        slot.value.clear(); // the buffer stays for the slot's reuse
        shard.used.sub(1);

        ts.bytes.sub(bytes);
        shard.bytes.sub(bytes);

        // Advance so successive evictions spread over shards instead
        // of draining one shard's list end to end.
        evict_cursor_[tenant] = next_cursor;
        return bytes;
    }
    evict_cursor_[tenant] = cursor;
    return 0;
}

} // namespace prism::serve
