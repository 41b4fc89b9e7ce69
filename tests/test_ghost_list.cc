/**
 * @file
 * The store's ghost list vs a reference model.
 *
 * GhostList keeps its membership in a flat open-addressing set
 * (serve/ghost_list.hh). The reference below is the node-based
 * design it replaced: the same ring plus a `std::unordered_set`.
 * Seeded random mixes of push, erase and contains must agree on
 * every answer and, periodically, on the membership of the whole key
 * universe — through ring wrap, stale ring entries left by erase, a
 * zero capacity, and the extreme keys 0 and ~0 (the latter is the
 * flat set's free-slot marker). The shadow hits Equation 1 reads
 * come straight from these answers, so any divergence would change
 * the serve documents (tests/golden/SERVE_fixture.json).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/rng.hh"
#include "serve/ghost_list.hh"

using namespace prism;
using namespace prism::serve;

namespace
{

/** The ring + unordered_set ghost list the flat set replaced. */
struct ReferenceGhostList
{
    std::vector<std::uint64_t> ring;
    std::uint32_t head = 0;
    std::unordered_set<std::uint64_t> members;

    void
    push(std::uint64_t key, std::uint32_t capacity)
    {
        if (capacity == 0 || members.count(key) != 0)
            return;
        if (ring.size() < capacity) {
            ring.push_back(key);
        } else {
            members.erase(ring[head]);
            ring[head] = key;
            head = (head + 1) % capacity;
        }
        members.insert(key);
    }

    bool contains(std::uint64_t key) const
    {
        return members.count(key) != 0;
    }

    void erase(std::uint64_t key) { members.erase(key); }
};

/** @p n keys: the extremes first, then seeded random values. */
std::vector<std::uint64_t>
keyUniverse(std::size_t n, std::uint64_t seed)
{
    std::vector<std::uint64_t> keys = {0, ~std::uint64_t{0},
                                       ~std::uint64_t{0} - 1, 1};
    Rng rng(seed);
    while (keys.size() < n)
        keys.push_back(rng.next());
    return keys;
}

/**
 * Replay @p ops random operations on both lists; @p universe keys
 * are drawn uniformly, so a universe a few times the capacity keeps
 * the ring wrapping and erase leaving stale entries behind.
 */
void
replay(std::uint32_t capacity, std::size_t universe, std::size_t ops,
       std::uint64_t seed)
{
    const std::vector<std::uint64_t> keys = keyUniverse(universe, seed);
    GhostList ghost;
    ReferenceGhostList ref;
    Rng rng(deriveSeed(seed, "ops"));

    for (std::size_t op = 0; op < ops; ++op) {
        const std::uint64_t key = keys[rng.below(keys.size())];
        const std::uint64_t kind = rng.below(4);
        if (kind < 2) {
            ghost.push(key, capacity);
            ref.push(key, capacity);
        } else if (kind == 2) {
            ghost.erase(key);
            ref.erase(key);
        }
        ASSERT_EQ(ghost.contains(key), ref.contains(key))
            << "capacity " << capacity << ", op " << op << ", key "
            << key;

        if (op % 257 == 0) {
            for (const std::uint64_t k : keys)
                ASSERT_EQ(ghost.contains(k), ref.contains(k))
                    << "capacity " << capacity << ", op " << op
                    << ", key " << k;
        }
    }
    EXPECT_LE(ref.members.size(), capacity);
}

} // namespace

TEST(GhostListEquivalence, RandomMixesMatchTheReferenceModel)
{
    // Universe below, near and far above the capacity: no wrap,
    // occasional wrap, constant wrap with stale entries.
    const std::uint32_t capacities[] = {1, 2, 7, 64, 1024};
    const std::size_t universes[] = {5, 96, 3000};
    std::uint64_t seed = 1;
    for (const std::uint32_t capacity : capacities)
        for (const std::size_t universe : universes) {
            replay(capacity, universe, 20000, seed++);
            if (HasFatalFailure())
                return;
        }
}

TEST(GhostListEquivalence, ZeroCapacityHoldsNothing)
{
    replay(0, 64, 2000, 99);

    GhostList ghost;
    for (const std::uint64_t key : keyUniverse(16, 5)) {
        ghost.push(key, 0);
        EXPECT_FALSE(ghost.contains(key)) << key;
    }
}

TEST(GhostListEquivalence, StaleRingEntriesUnmemberRepushedKeys)
{
    // A key erased and pushed again keeps its old ring entry too;
    // when that stale entry ages out, it takes the key's membership
    // with it although the newer entry is still in the ring.
    for (const std::uint64_t a : {std::uint64_t{0}, ~std::uint64_t{0},
                                  std::uint64_t{42}}) {
        const std::uint64_t b = a + 1, c = a + 2;
        GhostList ghost;
        ghost.push(a, 2); // ring [a]
        ghost.erase(a);   // ring [a], stale
        ghost.push(a, 2); // ring [a a]
        ghost.push(b, 2); // overwrites the stale a: a is gone
        EXPECT_FALSE(ghost.contains(a)) << a;
        EXPECT_TRUE(ghost.contains(b)) << a;
        ghost.push(c, 2); // overwrites the live a entry
        EXPECT_FALSE(ghost.contains(a)) << a;
        EXPECT_TRUE(ghost.contains(b)) << a;
        EXPECT_TRUE(ghost.contains(c)) << a;
    }
}

TEST(FlatKeySet, RandomMixesMatchUnorderedSet)
{
    // Growth from empty, backward-shift deletion through long probe
    // runs, and the free-slot marker ~0 as an ordinary key.
    const std::vector<std::uint64_t> keys = keyUniverse(4000, 11);
    FlatKeySet set;
    std::unordered_set<std::uint64_t> ref;
    Rng rng(12);
    for (int op = 0; op < 200000; ++op) {
        const std::uint64_t key = keys[rng.below(keys.size())];
        // Insert-heavy first half, erase-heavy second half: the set
        // grows to thousands of keys and drains again.
        const bool grow_phase = op < 100000;
        const std::uint64_t kind = rng.below(10);
        if (kind < (grow_phase ? 6u : 3u)) {
            set.insert(key);
            ref.insert(key);
        } else if (kind < 9) {
            set.erase(key);
            ref.erase(key);
        }
        ASSERT_EQ(set.contains(key), ref.count(key) != 0)
            << "op " << op << ", key " << key;
        if (op % 4999 == 0) {
            for (const std::uint64_t k : keys)
                ASSERT_EQ(set.contains(k), ref.count(k) != 0)
                    << "op " << op << ", key " << k;
        }
    }
}
