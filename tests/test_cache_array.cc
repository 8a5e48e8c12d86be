/** @file Unit tests for the direct-mapped cache array. */

#include <gtest/gtest.h>

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
    // record.
    AddressMap amap(16, 16);
    CacheArray cache(1024, amap); // 64 sets
    const std::uint64_t words[2] = {0xAA, 0xBB};
    const Addr a = 0x40;
    cache.install(a, CacheState::readWrite, words, 2);
    CacheLine *held = cache.lookup(a);
    ASSERT_NE(held, nullptr);
    const std::uint64_t other[2] = {1, 2};
    for (Addr b = 0; b < 64 * 16; b += 16)
        if (cache.indexOf(b) != cache.indexOf(a))
            cache.install(b, CacheState::readOnly, other, 2);
    EXPECT_EQ(cache.validLines(), 64u);
    EXPECT_EQ(cache.lookup(a), held);
    EXPECT_EQ(held->tag, a);
    EXPECT_EQ(held->state, CacheState::readWrite);
    EXPECT_EQ(held->words[0], 0xAAu);
    EXPECT_EQ(held->words[1], 0xBBu);
}

TEST(CacheArray, StateNamesForDebugging)
{
    EXPECT_STREQ(cacheStateName(CacheState::invalid), "Invalid");
    EXPECT_STREQ(cacheStateName(CacheState::readOnly), "Read-Only");
    EXPECT_STREQ(cacheStateName(CacheState::readWrite), "Read-Write");
}

} // namespace
} // namespace limitless
