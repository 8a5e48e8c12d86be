/** @file Unit tests for the direct-mapped cache array. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/cache_array.hh"

namespace limitless
{
namespace
{

TEST(CacheArray, GeometryFromSize)
{
    AddressMap amap(16, 16);
    CacheArray cache(64 * 1024, amap);
    EXPECT_EQ(cache.numSets(), 4096u);
}

TEST(CacheArray, LookupMissesOnEmptyCache)
{
    AddressMap amap(16, 16);
    CacheArray cache(1024, amap);
    EXPECT_EQ(cache.lookup(0x40), nullptr);
    EXPECT_EQ(cache.validLines(), 0u);
}

TEST(CacheArray, InstallThenLookup)
{
    AddressMap amap(16, 16);
    CacheArray cache(1024, amap);
    const std::uint64_t words[2] = {0xAA, 0xBB};
    cache.install(0x40, CacheState::readOnly, words, 2);
    CacheLine *cl = cache.lookup(0x40);
    ASSERT_NE(cl, nullptr);
    EXPECT_EQ(cl->state, CacheState::readOnly);
    EXPECT_EQ(cl->words[0], 0xAAu);
    EXPECT_EQ(cl->words[1], 0xBBu);
    EXPECT_EQ(cache.validLines(), 1u);
}

TEST(CacheArray, DirectMappedConflictEvicts)
{
    AddressMap amap(16, 16);
    CacheArray cache(1024, amap); // 64 sets
    const std::uint64_t words[2] = {1, 2};
    const Addr a = 0x40;
    const Addr b = a + 64 * 16; // same set, different tag
    ASSERT_EQ(cache.indexOf(a), cache.indexOf(b));
    cache.install(a, CacheState::readOnly, words, 2);
    cache.install(b, CacheState::readWrite, words, 2);
    EXPECT_EQ(cache.lookup(a), nullptr);
    ASSERT_NE(cache.lookup(b), nullptr);
    EXPECT_EQ(cache.validLines(), 1u);
}

TEST(CacheArray, DistinctSetsCoexist)
{
    AddressMap amap(16, 16);
    CacheArray cache(1024, amap);
    const std::uint64_t words[2] = {1, 2};
    for (Addr a = 0; a < 64 * 16; a += 16)
        cache.install(a, CacheState::readOnly, words, 2);
    EXPECT_EQ(cache.validLines(), 64u);
}

TEST(CacheArray, ForEachValidVisitsExactlyValidLines)
{
    AddressMap amap(16, 16);
    CacheArray cache(1024, amap);
    const std::uint64_t words[2] = {1, 2};
    cache.install(0x40, CacheState::readOnly, words, 2);
    cache.install(0x80, CacheState::readWrite, words, 2);
    cache.install(0xc0, CacheState::readOnly, words, 2);
    EXPECT_EQ(cache.validLines(), 3u);
    // Invalidated in place: the set keeps its record, but the line is
    // no longer resident.
    cache.lookup(0xc0)->state = CacheState::invalid;
    EXPECT_EQ(cache.validLines(), 2u);
    unsigned count = 0;
    cache.forEachValid([&](const CacheLine &cl) {
        ++count;
        EXPECT_TRUE(cl.valid());
        EXPECT_NE(cl.tag, 0xc0u);
    });
    EXPECT_EQ(count, 2u);
}

TEST(CacheArray, LinePointerSurvivesFillsOfOtherSets)
{
    // Callers hold CacheLine pointers across fills (CacheCtx::cl, the
    // line an install returns), so filling other sets must not move a
    // record. 300 fills take the set index from its first 16 slots
    // through five doublings, and the record pool across many blocks.
    AddressMap amap(16, 16);
    CacheArray cache(64 * 1024, amap); // 4,096 sets
    const std::uint64_t words[2] = {0xAA, 0xBB};
    const Addr a = 0x40;
    cache.install(a, CacheState::readWrite, words, 2);
    CacheLine *held = cache.lookup(a);
    ASSERT_NE(held, nullptr);
    const std::uint64_t other[2] = {1, 2};
    for (unsigned i = 1; i <= 300; ++i) {
        // Spread the sets over the whole index, as homes interleave.
        const Addr b = a + Addr{i} * 13 * 16;
        ASSERT_NE(cache.indexOf(b), cache.indexOf(a));
        cache.install(b, CacheState::readOnly, other, 2);
        ASSERT_EQ(cache.lookup(a), held) << "after " << i << " fills";
    }
    EXPECT_EQ(cache.validLines(), 301u);
    EXPECT_EQ(cache.lookup(a), held);
    EXPECT_EQ(held->tag, a);
    EXPECT_EQ(held->state, CacheState::readWrite);
    EXPECT_EQ(held->words[0], 0xAAu);
    EXPECT_EQ(held->words[1], 0xBBu);
}

TEST(CacheArray, FilledSetWalkIsInSetOrderWhateverTheFillOrder)
{
    // Checkpoints walk the filled sets in set order so a fingerprint does
    // not depend on which set a run filled first. Fill 40 sets in a
    // scrambled order (past the index's first 16 slots), invalidate one,
    // and refill one: the walk still visits each filled set once, in
    // ascending order, invalid records included.
    AddressMap amap(16, 16);
    CacheArray cache(64 * 1024, amap); // 4,096 sets
    const std::uint64_t words[2] = {1, 2};
    std::vector<std::size_t> sets;
    for (std::size_t i = 0; i < 40; ++i)
        sets.push_back((i * 2731 + 97) % cache.numSets());
    for (std::size_t s : sets)
        cache.install(Addr{s} * 16, CacheState::readOnly, words, 2);
    cache.lookup(Addr{sets[5]} * 16)->state = CacheState::invalid;
    cache.install(Addr{sets[7]} * 16 + 4096 * 16, CacheState::readWrite,
                  words, 2);

    std::vector<std::size_t> walked;
    cache.forEachFilledSet([&](std::size_t set, const CacheLine &cl) {
        EXPECT_EQ(cache.indexOf(cl.tag), set);
        EXPECT_EQ(cache.atSet(set), &cl);
        walked.push_back(set);
    });
    std::sort(sets.begin(), sets.end());
    EXPECT_EQ(walked, sets);
}

TEST(CacheArray, StateNamesForDebugging)
{
    EXPECT_STREQ(cacheStateName(CacheState::invalid), "Invalid");
    EXPECT_STREQ(cacheStateName(CacheState::readOnly), "Read-Only");
    EXPECT_STREQ(cacheStateName(CacheState::readWrite), "Read-Write");
}

} // namespace
} // namespace limitless
