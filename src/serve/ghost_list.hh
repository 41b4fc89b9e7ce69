/**
 * @file
 * The store's per-tenant ghost list: a bounded FIFO of recently
 * evicted keys with O(1) membership (docs/SERVING.md).
 *
 * Membership lives in a flat open-addressing set (linear probing,
 * backward-shift deletion, a power-of-two table at most 3/4 full,
 * 8 bytes a slot), so once the table has grown to the list's working
 * size a push, erase or lookup touches no allocator. Every 64-bit
 * value is a legal key: the one value that marks a free slot (~0) is
 * held by a flag instead.
 *
 * FIFO semantics: push appends to a ring of at most `capacity`
 * entries and, once the ring is full, overwrites (and un-members)
 * the oldest entry. erase drops membership only; the ring keeps the
 * stale entry, which ages out in turn — and when it does, it
 * un-members its key even if that key was pushed again since. The
 * shadow-hit counts Equation 1 reads depend on exactly this
 * behaviour, so it is pinned against a reference model in
 * tests/test_ghost_list.cc.
 */

#ifndef PRISM_SERVE_GHOST_LIST_HH
#define PRISM_SERVE_GHOST_LIST_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"

namespace prism::serve
{

/** Open-addressing set of 64-bit keys. */
class FlatKeySet
{
  public:
    bool
    contains(std::uint64_t key) const
    {
        if (key == kEmpty)
            return holds_empty_key_;
        return !slots_.empty() && slots_[find(key)] == key;
    }

    void
    insert(std::uint64_t key)
    {
        if (key == kEmpty) {
            holds_empty_key_ = true;
            return;
        }
        if ((size_ + 1) * 4 > slots_.size() * 3)
            grow();
        std::uint64_t &slot = slots_[find(key)];
        if (slot == kEmpty) {
            slot = key;
            ++size_;
        }
    }

    void
    erase(std::uint64_t key)
    {
        if (key == kEmpty) {
            holds_empty_key_ = false;
            return;
        }
        if (slots_.empty())
            return;
        std::size_t hole = find(key);
        if (slots_[hole] == kEmpty)
            return;
        // Backward shift: pull later members of the probe run into
        // the hole whenever the hole lies on their own probe path,
        // so lookups never need tombstones.
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = (hole + 1) & mask; slots_[i] != kEmpty;
             i = (i + 1) & mask) {
            if (((i - homeOf(slots_[i])) & mask) >=
                ((i - hole) & mask)) {
                slots_[hole] = slots_[i];
                hole = i;
            }
        }
        slots_[hole] = kEmpty;
        --size_;
    }

  private:
    /** Marks a free slot; the key itself is held by a flag. */
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

    std::size_t
    homeOf(std::uint64_t key) const
    {
        return static_cast<std::size_t>(Rng::mix64(key)) &
               (slots_.size() - 1);
    }

    /** @p key's slot, or the free slot ending its probe run. */
    std::size_t
    find(std::uint64_t key) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = homeOf(key);
        while (slots_[i] != kEmpty && slots_[i] != key)
            i = (i + 1) & mask;
        return i;
    }

    /** Double the table (16 slots at first), keeping it <= 3/4 full. */
    void
    grow()
    {
        std::vector<std::uint64_t> old(
            slots_.empty() ? 16 : slots_.size() * 2, kEmpty);
        old.swap(slots_);
        for (const std::uint64_t key : old)
            if (key != kEmpty)
                slots_[find(key)] = key;
    }

    std::vector<std::uint64_t> slots_;
    std::size_t size_ = 0; ///< keys in slots_
    bool holds_empty_key_ = false;
};

/** Bounded FIFO of evicted keys with O(1) membership. */
class GhostList
{
  public:
    /**
     * Remember @p key as evicted, forgetting the oldest entry when
     * @p capacity entries are already held. A no-op for a current
     * member or a zero capacity.
     */
    void
    push(std::uint64_t key, std::uint32_t capacity)
    {
        if (capacity == 0 || members_.contains(key))
            return;
        if (ring_.size() < capacity) {
            ring_.push_back(key);
        } else {
            members_.erase(ring_[head_]);
            ring_[head_] = key;
            head_ = (head_ + 1) % capacity;
        }
        members_.insert(key);
    }

    bool contains(std::uint64_t key) const
    {
        return members_.contains(key);
    }

    /** Drop @p key's membership (its ring entry goes stale). */
    void erase(std::uint64_t key) { members_.erase(key); }

  private:
    std::vector<std::uint64_t> ring_;
    std::uint32_t head_ = 0; ///< next overwrite position
    FlatKeySet members_;
};

} // namespace prism::serve

#endif // PRISM_SERVE_GHOST_LIST_HH
