/** @file Unit tests for the deterministic event queue. */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"

namespace limitless
{
namespace
{

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextEventTick(), maxTick);
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickOrderedByPriorityThenInsertion)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&]() { order.push_back(2); }, EventPriority::cpu);
    eq.schedule(5, [&]() { order.push_back(0); }, EventPriority::network);
    eq.schedule(5, [&]() { order.push_back(3); }, EventPriority::cpu);
    eq.schedule(5, [&]() { order.push_back(1); }, EventPriority::deliver);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&]() {
        ++fired;
        if (fired < 5)
            eq.scheduleIn(7, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.now(), 28u);
}

TEST(EventQueue, SameTickScheduleRunsThisTick)
{
    EventQueue eq;
    bool inner = false;
    eq.schedule(10, [&]() {
        eq.schedule(10, [&]() { inner = true; });
    });
    eq.run();
    EXPECT_TRUE(inner);
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueue, RunUntilStopsAtLimitInclusive)
{
    EventQueue eq;
    int count = 0;
    for (Tick t = 1; t <= 10; ++t)
        eq.schedule(t * 10, [&]() { ++count; });
    const auto ran = eq.runUntil(50);
    EXPECT_EQ(ran, 5u);
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.pendingEvents(), 5u);
    eq.run();
    EXPECT_EQ(count, 10);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 17; ++i)
        eq.schedule(i, []() {});
    eq.run();
    EXPECT_EQ(eq.executedEvents(), 17u);
}

TEST(EventQueue, CallbacksWithSmallCapturesStoreInline)
{
    // The whole point of the inline callback type: the simulator's hot
    // captures ([this], [this, ptr], [this, ptr, tick]) never allocate.
    struct Fake
    {
        int x;
    } fake{0};
    void *p = &fake;
    Tick t = 0;
    auto small = [&fake]() { ++fake.x; };
    auto medium = [&fake, p, t]() { (void)p; (void)t; ++fake.x; };
    static_assert(EventQueue::Callback::fitsInline<decltype(small)>);
    static_assert(EventQueue::Callback::fitsInline<decltype(medium)>);
    EventQueue::Callback cb(std::move(medium));
    EXPECT_TRUE(cb.storedInline());
}

TEST(EventQueue, DrainedBucketsReturnTheirCapacity)
{
    // One tick at a time, 1,000 events one tick ahead: every wheel slot
    // is filled once, but at most one bucket is live at a time. Drained
    // buckets hand their vectors on, so the wheel retains about one
    // bucket's worth of entries, not one per slot (~1,024 x 1,024).
    EventQueue eq;
    std::uint64_t ran = 0;
    for (int tick = 0; tick < 1024; ++tick) {
        for (int i = 0; i < 1000; ++i)
            eq.scheduleIn(1, [&ran]() { ++ran; });
        eq.run();
    }
    EXPECT_EQ(ran, 1024u * 1000u);
    EXPECT_EQ(eq.now(), 1024u);
    EXPECT_LE(eq.reservedEntries(), 4096u);
}

/**
 * Property test: the timing-wheel + overflow-heap queue executes a large
 * random schedule in exactly the order a plain (tick, priority, seq)
 * min-heap would. The reference is a std::set ordered by that key —
 * semantically a binary heap with a total order, minus the wheel.
 *
 * Events may reschedule follow-ups (derived deterministically from the
 * parent id), so same-tick insertion during execution, wheel wrap-around
 * and heap->wheel migration are all exercised. Both executions must
 * visit identical id sequences.
 */
TEST(EventQueueProperty, MatchesReferenceHeapOver100kRandomEvents)
{
    constexpr int kInitial = 100'000;
    constexpr std::uint64_t kMaxTick = 1u << 20; // far beyond the wheel
    const std::uint32_t prios[] = {0, 10, 20, 30, 90};

    // Follow-up rule, a pure function of the parent id so the real and
    // reference runs derive the same children without sharing state.
    auto spawns = [](std::uint64_t id) { return id % 7 == 0; };
    auto childDelay = [](std::uint64_t id) { return (id * 2654435761u) % 2000; };
    auto childPrio = [&](std::uint64_t id) { return prios[id % 5]; };

    std::mt19937_64 rng(0xA1ECAFEu);
    std::vector<std::uint64_t> whens(kInitial);
    std::vector<std::uint32_t> initPrios(kInitial);
    for (int i = 0; i < kInitial; ++i) {
        whens[i] = rng() % kMaxTick;
        initPrios[i] = prios[rng() % 5];
    }

    // Real run.
    EventQueue eq;
    std::vector<std::uint64_t> real_order;
    real_order.reserve(kInitial * 2);
    std::uint64_t next_child = kInitial;
    std::function<void(std::uint64_t)> fire = [&](std::uint64_t id) {
        real_order.push_back(id);
        if (spawns(id)) {
            const std::uint64_t child = next_child++;
            eq.schedule(eq.now() + childDelay(id),
                        [&fire, child]() { fire(child); },
                        childPrio(id));
        }
    };
    for (std::uint64_t i = 0; i < kInitial; ++i)
        eq.schedule(whens[i], [&fire, i]() { fire(i); }, initPrios[i]);
    eq.run();

    // Reference run: pop the (when, priority, seq) minimum each step.
    using Key = std::tuple<std::uint64_t, std::uint32_t, std::uint64_t,
                           std::uint64_t>; // when, prio, seq, id
    std::set<Key> ref;
    std::uint64_t seq = 0;
    for (std::uint64_t i = 0; i < kInitial; ++i)
        ref.insert({whens[i], initPrios[i], seq++, i});
    std::vector<std::uint64_t> ref_order;
    ref_order.reserve(real_order.size());
    std::uint64_t ref_next_child = kInitial;
    while (!ref.empty()) {
        const auto [when, prio, s, id] = *ref.begin();
        ref.erase(ref.begin());
        ref_order.push_back(id);
        if (spawns(id)) {
            const std::uint64_t child = ref_next_child++;
            ref.insert({when + childDelay(id), childPrio(id), seq++, child});
        }
    }

    ASSERT_EQ(real_order.size(), ref_order.size());
    // Element-wise compare without dumping 100k values on failure.
    for (std::size_t i = 0; i < real_order.size(); ++i)
        ASSERT_EQ(real_order[i], ref_order[i]) << "divergence at step " << i;
    EXPECT_EQ(eq.executedEvents(), real_order.size());
}

} // namespace
} // namespace limitless
