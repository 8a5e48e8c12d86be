/** @file Unit tests for the statistics package. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "stats/stats.hh"

namespace limitless
{
namespace
{

TEST(Stats, CounterIncrements)
{
    StatSet set("t");
    Counter &c = set.counter("events", "things that happened");
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AccumulatorTracksMoments)
{
    StatSet set("t");
    Accumulator &a = set.accumulator("lat", "latency");
    a.reset();
    a.sample(10);
    a.sample(20);
    a.sample(30);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 20.0);
    EXPECT_DOUBLE_EQ(a.minimum(), 10.0);
    EXPECT_DOUBLE_EQ(a.maximum(), 30.0);
}

TEST(Stats, EmptyAccumulatorIsZero)
{
    StatSet set("t");
    Accumulator &a = set.accumulator("lat", "latency");
    a.reset();
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.minimum(), 0.0);
    EXPECT_DOUBLE_EQ(a.maximum(), 0.0);
}

TEST(Stats, DistributionCountsExactValues)
{
    StatSet set("t");
    Distribution &d = set.distribution("ws", "worker sets", 16);
    d.sample(1);
    d.sample(1);
    d.sample(4);
    d.sample(100); // clamped to the top slot
    EXPECT_EQ(d.at(1), 2u);
    EXPECT_EQ(d.at(4), 1u);
    EXPECT_EQ(d.at(16), 1u);
    EXPECT_EQ(d.at(15), 0u); // never sampled, inside the domain
    EXPECT_EQ(d.domain(), 17u);
    EXPECT_THROW(d.at(17), std::out_of_range);
}

TEST(Stats, FindLocatesStatsByName)
{
    StatSet set("node0.cache");
    set.counter("hits", "cache hits");
    set.counter("misses", "cache misses");
    EXPECT_NE(set.find("hits"), nullptr);
    EXPECT_NE(set.find("misses"), nullptr);
    EXPECT_EQ(set.find("nothing"), nullptr);
}

TEST(Stats, DumpIncludesPrefixNameAndDescription)
{
    StatSet set("cache");
    Counter &c = set.counter("hits", "accesses satisfied locally");
    c += 3;
    std::ostringstream os;
    set.dump(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("cache.hits"), std::string::npos);
    EXPECT_NE(text.find("3"), std::string::npos);
    EXPECT_NE(text.find("accesses satisfied locally"), std::string::npos);
}

TEST(Stats, NamesAndDescriptionsPointAtTheirLiterals)
{
    // A stat keeps pointers to its name and description, never a copy: a
    // 1,024-node machine holds about 41,000 stats, and most descriptions
    // are too long for a string's inline buffer.
    static const char name[] = "remote_latency";
    static const char desc[] = "remote miss latency (cycles), request to fill";
    StatSet set("cache");
    Accumulator &a = set.accumulator(name, desc);
    Counter &c = set.counter("hits", "accesses satisfied locally");
    EXPECT_EQ(a.name().data(), name);
    EXPECT_EQ(a.desc().data(), desc);
    EXPECT_EQ(a.name(), "remote_latency");
    EXPECT_EQ(c.desc(), "accesses satisfied locally");
    // Lookups compare text, not pointers.
    const std::string key = "remote_latency";
    EXPECT_EQ(set.find(key), &a);
    EXPECT_EQ(set.find("hits"), &c);
    EXPECT_EQ(set.find("remote"), nullptr);
    // vtable pointer, two name pointers and the count.
    EXPECT_LE(sizeof(Counter), 4 * sizeof(void *));
}

TEST(Stats, DuplicateNameAborts)
{
    StatSet set("t");
    set.counter("x", "first");
    EXPECT_DEATH(set.counter("x", "second"), "duplicate");
}

TEST(Stats, ResetAllClearsEverything)
{
    StatSet set("t");
    Counter &c = set.counter("c", "");
    Accumulator &a = set.accumulator("a", "");
    c += 7;
    a.sample(1.0);
    set.resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(a.count(), 0u);
}

} // namespace
} // namespace limitless
