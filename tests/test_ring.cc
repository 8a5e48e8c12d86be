/** @file Unit tests for the allocate-on-first-push ring (sim/ring.hh). */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "heap_probe.hh"
#include "sim/ring.hh"

namespace limitless
{
namespace
{

std::vector<int>
contents(const Ring<int> &ring)
{
    std::vector<int> out;
    for (int v : ring)
        out.push_back(v);
    return out;
}

TEST(Ring, AllocatesNothingBeforeTheFirstPush)
{
    const std::uint64_t before = heap_probe::allocations.load();
    Ring<int> ring(4);
    Ring<std::unique_ptr<int>> owning;
    EXPECT_EQ(heap_probe::allocations.load(), before);
    EXPECT_EQ(ring.capacity(), 0u);
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.begin(), ring.end());

    ring.push_back(1);
    EXPECT_EQ(heap_probe::allocations.load(), before + 1);
    EXPECT_EQ(ring.capacity(), 4u);
    (void)owning;
}

TEST(Ring, FirstCapacityRoundsUpToAPowerOfTwo)
{
    Ring<int> ring(5);
    ring.push_front(7);
    EXPECT_EQ(ring.capacity(), 8u);
    EXPECT_EQ(ring.front(), 7);
}

TEST(Ring, MatchesADequeAcrossWraparoundAndGrowth)
{
    // Mixed push_front / push_back / pop_front against std::deque: the
    // head walks round the ring many times and the ring doubles from its
    // first capacity of 2 with the live span wrapped.
    Ring<int> ring(2);
    std::deque<int> ref;
    int next = 0;
    for (int round = 0; round < 200; ++round) {
        const int pushes = 1 + round % 5;
        for (int i = 0; i < pushes; ++i) {
            if ((round + i) % 3 == 0) {
                ring.push_front(next);
                ref.push_front(next);
            } else {
                ring.push_back(next);
                ref.push_back(next);
            }
            ++next;
        }
        const int pops = round < 100 ? pushes - 1 : pushes + 1;
        for (int i = 0; i < pops && !ref.empty(); ++i) {
            ASSERT_EQ(ring.front(), ref.front()) << "round " << round;
            ring.pop_front();
            ref.pop_front();
        }
        ASSERT_EQ(ring.size(), ref.size());
        ASSERT_EQ(contents(ring), std::vector<int>(ref.begin(), ref.end()))
            << "round " << round;
    }
    EXPECT_GT(ring.capacity(), 2u);
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(ring[i], ref[i]);
}

TEST(Ring, GrowthKeepsOrderWhenTheSpanWraps)
{
    Ring<int> ring(4);
    for (int v = 0; v < 4; ++v)
        ring.push_back(v);
    ring.pop_front();
    ring.pop_front();
    ring.push_back(4);
    ring.push_back(5); // wraps: slots hold 4 5 2 3
    ring.push_front(1); // full: grows, unwrapping to 2 3 4 5
    EXPECT_EQ(ring.capacity(), 8u);
    EXPECT_EQ(contents(ring), (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Ring, OwnsMoveOnlyElements)
{
    Ring<std::unique_ptr<int>> ring(2);
    for (int v = 0; v < 5; ++v)
        ring.push_back(std::make_unique<int>(v));
    ring.push_front(std::make_unique<int>(-1));
    int expect = -1;
    for (const auto &p : ring)
        EXPECT_EQ(*p, expect++);

    // swap hands the whole buffer over, as a drain that re-queues does.
    Ring<std::unique_ptr<int>> pending;
    pending.swap(ring);
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.capacity(), 0u);
    EXPECT_EQ(pending.size(), 6u);
    std::unique_ptr<int> first = std::move(pending.front());
    pending.pop_front();
    EXPECT_EQ(*first, -1);
    pending.clear();
    EXPECT_TRUE(pending.empty());
    EXPECT_EQ(pending.capacity(), 8u);
}

TEST(Ring, DestroysWhatItHolds)
{
    auto tracked = std::make_shared<int>(0);
    {
        Ring<std::shared_ptr<int>> ring(2);
        for (int i = 0; i < 5; ++i)
            ring.push_back(tracked);
        ring.pop_front();
        EXPECT_EQ(tracked.use_count(), 5);
    }
    EXPECT_EQ(tracked.use_count(), 1);
}

} // namespace
} // namespace limitless
