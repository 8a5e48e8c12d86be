/** @file Unit tests for the deterministic event queue. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
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

TEST(EventQueue, AdvanceToMigratesOverflowIntoTheWindow)
{
    // The first event is parked in the overflow heap: tick 5,000 is
    // beyond the 1,024-tick window at tick 0. Once advanceTo brings it
    // within one span, a later schedule for the same (tick, priority)
    // must run after it. If advanceTo left it parked, the later event
    // would reach the lane first and the parked one would append behind.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5000, [&]() { order.push_back(1); });
    eq.advanceTo(4990);
    eq.schedule(5000, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, SameTickLowerPriorityRunsNext)
{
    // A cpu event schedules network work at its own tick: that event runs
    // next, ahead of the rest of the cpu lane, and the ctrl event it adds
    // in turn runs before the cpu lane resumes. A same-lane schedule
    // joins the back of its lane.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&]() {
        order.push_back(1);
        eq.schedule(5, [&]() {
            order.push_back(2);
            eq.schedule(5, [&]() { order.push_back(3); }, EventPriority::ctrl);
        }, EventPriority::network);
        eq.schedule(5, [&]() { order.push_back(5); }, EventPriority::cpu);
    }, EventPriority::cpu);
    eq.schedule(5, [&]() { order.push_back(4); }, EventPriority::cpu);
    eq.schedule(5, [&]() { order.push_back(6); }, EventPriority::stats);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(EventQueueDeathTest, PriorityOutsideTheLanesPanics)
{
    EventQueue eq;
    EXPECT_DEATH(eq.schedule(5, []() {}, 15), "priority 15");
}

/**
 * Property tests: the timing-wheel + overflow-heap queue executes a large
 * random schedule in exactly the order a plain (tick, priority, seq)
 * min-heap would. The reference is a std::set ordered by that key —
 * semantically a binary heap with a total order, minus the wheel.
 *
 * Events may reschedule follow-ups (derived deterministically from the
 * parent id), up to 2,000 ticks ahead, so same-tick insertion during
 * execution, wheel wrap-around and heap->wheel migration are all
 * exercised. Every driver must visit the reference's id sequence.
 */
constexpr int kPrios[] = {EventPriority::network, EventPriority::deliver,
                          EventPriority::ctrl, EventPriority::cpu,
                          EventPriority::stats};
constexpr Tick kMaxTick = 1u << 20; // far beyond the wheel

class RandomSchedule
{
  public:
    static constexpr int kInitial = 100'000;

    RandomSchedule()
    {
        std::mt19937_64 rng(0xA1ECAFEu);
        for (int i = 0; i < kInitial; ++i) {
            whens.push_back(rng() % kMaxTick);
            prios.push_back(kPrios[rng() % 5]);
        }
    }

    /**
     * Schedule every event on @p eq, let @p drive run the queue, and
     * return the ids in execution order. @p drive gets an inject(when,
     * prio) function that schedules an event from outside the queue's
     * own callbacks, as the parallel kernel's fabric coupling does;
     * reference() adds each one at the same point of the run.
     */
    template <typename Drive>
    std::vector<std::uint64_t>
    run(EventQueue &eq, Drive drive)
    {
        std::vector<std::uint64_t> order;
        order.reserve(kInitial * 2);
        std::uint64_t next_child = kInitial;
        std::function<void(std::uint64_t)> fire = [&](std::uint64_t id) {
            order.push_back(id);
            if (spawns(id)) {
                const std::uint64_t child = next_child++;
                eq.schedule(eq.now() + childDelay(id),
                            [&fire, child]() { fire(child); },
                            childPrio(id));
            }
        };
        for (std::uint64_t i = 0; i < kInitial; ++i)
            eq.schedule(whens[i], [&fire, i]() { fire(i); }, prios[i]);
        auto inject = [&](Tick when, int prio) {
            const std::uint64_t id = kInjectedIds + injections.size();
            injections.push_back({order.size(), when, prio, id});
            eq.schedule(when, [&fire, id]() { fire(id); }, prio);
        };
        drive(eq, inject);
        return order;
    }

    /** Pop the (when, priority, seq) minimum each step. */
    std::vector<std::uint64_t>
    reference() const
    {
        using Key = std::tuple<std::uint64_t, int, std::uint64_t,
                               std::uint64_t>; // when, prio, seq, id
        std::set<Key> ref;
        std::uint64_t seq = 0;
        for (std::uint64_t i = 0; i < kInitial; ++i)
            ref.insert({whens[i], prios[i], seq++, i});
        std::vector<std::uint64_t> order;
        std::uint64_t next_child = kInitial;
        std::size_t k = 0;
        for (;;) {
            for (; k < injections.size() && injections[k].after == order.size();
                 ++k)
                ref.insert({injections[k].when, injections[k].prio, seq++,
                            injections[k].id});
            if (ref.empty())
                break;
            const auto [when, prio, s, id] = *ref.begin();
            ref.erase(ref.begin());
            order.push_back(id);
            if (spawns(id)) {
                const std::uint64_t child = next_child++;
                ref.insert({when + childDelay(id), childPrio(id), seq++,
                            child});
            }
        }
        return order;
    }

  private:
    static constexpr std::uint64_t kInjectedIds = std::uint64_t{1} << 32;

    /** An injected event, scheduled once `after` events had run. */
    struct Injection
    {
        std::size_t after;
        Tick when;
        int prio;
        std::uint64_t id;
    };

    // Follow-up rule, a pure function of the parent id so the real and
    // reference runs derive the same children without sharing state.
    static bool spawns(std::uint64_t id) { return id % 7 == 0; }
    static std::uint64_t
    childDelay(std::uint64_t id)
    {
        return (id * 2654435761u) % 2000;
    }
    static int childPrio(std::uint64_t id) { return kPrios[id % 5]; }

    std::vector<std::uint64_t> whens;
    std::vector<int> prios;
    std::vector<Injection> injections;
};

void
expectSameOrder(const std::vector<std::uint64_t> &real,
                const std::vector<std::uint64_t> &ref)
{
    ASSERT_EQ(real.size(), ref.size());
    // Element-wise compare without dumping 100k values on failure.
    for (std::size_t i = 0; i < real.size(); ++i)
        ASSERT_EQ(real[i], ref[i]) << "divergence at step " << i;
}

TEST(EventQueueProperty, MatchesReferenceHeapOver100kRandomEvents)
{
    RandomSchedule sched;
    EventQueue eq;
    const auto real = sched.run(eq, [](EventQueue &q, auto &&) { q.run(); });
    expectSameOrder(real, sched.reference());
    EXPECT_EQ(eq.executedEvents(), real.size());
}

TEST(EventQueueProperty, ParallelKernelStepsMatchReferenceHeap)
{
    // Drive the queue the way ParallelKernel drives a partition queue:
    // advance to a window start chosen outside the queue, run the tick
    // below stats priority, then its remainder. The window start is
    // often earlier than the queue's own next event, as when another
    // partition holds the globally earliest one. Events also arrive
    // from outside, as fabric deliveries do: at the window start before
    // the queue's own events run, possibly for a tick whose earlier
    // events are still parked in the overflow heap (so advanceTo must
    // have migrated them), and at the window's tick between its two
    // halves, which lowers the walk's lane cursor.
    RandomSchedule sched;
    EventQueue eq;
    std::mt19937_64 rng(0x5EEDu);
    const auto real = sched.run(eq, [&rng](EventQueue &q, auto &&inject) {
        for (Tick next = q.nextEventTick(); next != maxTick;
             next = q.nextEventTick()) {
            const Tick t = std::min(next, q.now() + 1 + rng() % 1500);
            q.advanceTo(t);
            const bool injecting = t < kMaxTick;
            if (injecting && rng() % 2)
                inject(t + rng() % 2000, kPrios[rng() % 5]);
            q.runTickBelow(t, EventPriority::stats);
            if (injecting && rng() % 4 == 0)
                inject(t, kPrios[rng() % 4]);
            q.runTickRemainder(t);
        }
    });
    expectSameOrder(real, sched.reference());
    EXPECT_EQ(eq.executedEvents(), real.size());
}

} // namespace
} // namespace limitless
