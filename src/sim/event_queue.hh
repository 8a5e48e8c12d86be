/**
 * @file
 * Deterministic event queue driving the whole simulation.
 *
 * A single EventQueue instance serializes every component of one simulated
 * machine. Events at the same tick execute in (priority, insertion-order)
 * order, which makes runs bit-reproducible for a fixed seed.
 *
 * Internally the queue is a single-level timing wheel over the near
 * horizon (the next `wheelSpan` ticks, which covers network hops,
 * controller latencies and trap costs — the overwhelming majority of
 * schedules) with a binary-heap overflow for far-future events. Each
 * wheel slot holds one FIFO lane per EventPriority value, so a schedule
 * is an append and a tick runs its lanes in priority order with no sort:
 * arrival order within a (tick, priority) lane already is insertion
 * order. The execution order is bit-identical to a plain (tick,
 * priority, seq) priority queue; a property test
 * (tests/test_event_queue.cc) cross-checks this against a reference
 * heap scheduler on randomized workloads. Callbacks are stored in an
 * InlineFunction so scheduling an event never touches the allocator for
 * captures up to 48 bytes.
 */

#ifndef LIMITLESS_SIM_EVENT_QUEUE_HH
#define LIMITLESS_SIM_EVENT_QUEUE_HH

#include <array>
#include <bit>
#include <cstdint>
#include <tuple>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace limitless
{

/** Scheduling priorities for same-tick events (lower runs first). These
 *  five are the only values the queue accepts: each has its own lane. */
namespace EventPriority
{
    inline constexpr int network = 0;   ///< move flits before consumers
    inline constexpr int deliver = 10;  ///< hand packets to controllers
    inline constexpr int ctrl = 20;     ///< cache / memory controller work
    inline constexpr int cpu = 30;      ///< processor issue / resume
    inline constexpr int stats = 90;    ///< samplers and monitors
}

/**
 * Timing-wheel based discrete event scheduler.
 *
 * Not thread-safe; one queue per simulated machine.
 */
class EventQueue
{
  public:
    using Callback = InlineFunction<void(), 48>;

    EventQueue();

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * @param when absolute tick; must be >= now()
     * @param cb   callback to run
     * @param priority same-tick ordering: an EventPriority value (any
     *                 other value panics)
     */
    void schedule(Tick when, Callback cb, int priority = EventPriority::ctrl);

    /** Schedule relative to now(). */
    void
    scheduleIn(Tick delta, Callback cb, int priority = EventPriority::ctrl)
    {
        schedule(_now + delta, std::move(cb), priority);
    }

    /** Execute the single earliest event. @return false if queue empty. */
    bool runOne();

    /**
     * Run events until the queue drains or simulated time would exceed
     * @p limit. Events scheduled exactly at @p limit still run.
     *
     * @return number of events executed
     */
    std::uint64_t runUntil(Tick limit);

    /** Run until the queue is empty. @return number of events executed. */
    std::uint64_t run();

    /**
     * Execute up to @p max earliest events, in the same (tick, priority,
     * seq) order as @p max calls of runOne(), inside one `eq.burst`
     * profiler scope rather than one per event.
     *
     * @return number of events executed (< max only when drained)
     */
    std::uint64_t runBurst(std::uint64_t max);

    /**
     * Advance now() to @p t without executing anything, migrating the
     * overflow entries the window now covers. Requires that no event is
     * pending before @p t and no tick is mid-walk. Used by the parallel
     * kernel to align partition queues on a window boundary chosen
     * globally (the queue's own nextEventTick() may be later than the
     * window start).
     */
    void advanceTo(Tick t);

    /**
     * Execute events at exactly tick @p t whose priority is below
     * @p prioLimit (an EventPriority value), stopping (tick mid-walk) at
     * the first event at or above the limit. Events a callback schedules
     * for the same tick are honoured, exactly as in runOne(). No-op when
     * the earliest pending event is not at @p t.
     *
     * Parallel kernel: each partition runs its tick-@p t events below
     * EventPriority::stats concurrently, then the coordinator finishes
     * every queue's remainder serially (samplers and monitors observe
     * cross-partition state).
     *
     * @return number of events executed
     */
    std::uint64_t runTickBelow(Tick t, int prioLimit);

    /** Execute every remaining event at exactly tick @p t (including any
     *  the callbacks add at @p t). @return number executed. */
    std::uint64_t runTickRemainder(Tick t);

    bool empty() const { return _size == 0; }
    std::size_t pendingEvents() const { return _size; }
    std::uint64_t executedEvents() const { return _executed; }

    /** Earliest pending tick, or maxTick when empty. */
    Tick nextEventTick() const;

    /** Entries the wheel can hold without allocating: the capacity of
     *  every lane plus the spare list (host-memory tests). */
    std::size_t reservedEntries() const;

  private:
    /** Near-horizon window: events within `wheelSpan` ticks of now()
     *  land in the wheel; everything else waits in the overflow heap
     *  until the window reaches it. */
    static constexpr unsigned wheelBits = 10;
    static constexpr Tick wheelSpan = Tick{1} << wheelBits;
    static constexpr Tick wheelMask = wheelSpan - 1;

    /**
     * One FIFO lane per EventPriority value, in priority order. A lane
     * needs no per-entry key: events of one (tick, priority) run in the
     * order they were scheduled, and appending keeps that order. It
     * holds only while no overflow entry is inside the window, since one
     * that migrated late would land behind later schedules for its tick;
     * so every path that moves now() (enterTick, advanceTo, runUntil)
     * migrates the overflow heap at once.
     */
    static constexpr unsigned numLanes = 5;
    using Lane = std::vector<Callback>;
    using Slot = std::array<Lane, numLanes>;

    /** Lane of an EventPriority value; panics on any other priority. */
    static unsigned laneOf(int priority);

    /** An event beyond the window. The overflow heap is the only place
     *  that keeps a (when, lane, seq) key per entry. */
    struct OverflowEntry
    {
        Tick when;
        std::uint32_t lane;
        std::uint64_t seq;
        Callback cb;
    };

    /** Min-heap comparator for the overflow vector (std::push_heap is a
     *  max-heap, so invert). */
    struct OverflowLater
    {
        bool
        operator()(const OverflowEntry &a, const OverflowEntry &b) const
        {
            return std::tie(b.when, b.lane, b.seq) <
                   std::tie(a.when, a.lane, a.seq);
        }
    };

    void wheelInsert(Tick when, unsigned lane, Callback &&cb);
    /** Move overflow entries inside the window [_now, _now + span). */
    void migrateOverflow();
    /** Advance to the earliest occupied tick and start walking it. */
    void enterTick();
    /** Make tick @p t the walked one if it holds the earliest pending
     *  event. @return whether tick @p t is mid-walk. */
    bool walkTick(Tick t);
    /** Pop and run the walked tick's next event, then recycle drained
     *  lanes, ending the walk when none is left. */
    void runNext();
    /** Earliest occupied wheel tick, or maxTick when the wheel is empty. */
    Tick wheelNextTick() const;

    std::vector<Slot> _slots;               ///< one slot per wheel tick
    /** Drained lanes' vectors, handed to the next lane that fills. */
    std::vector<Lane> _spare;
    std::uint64_t _occupied[wheelSpan / 64] = {}; ///< slot bitmap
    std::vector<OverflowEntry> _overflow;   ///< min-heap beyond the window
    std::size_t _size = 0;                  ///< wheel + overflow entries
    Tick _now = 0;
    std::uint64_t _seq = 0;                 ///< next overflow entry's seq
    std::uint64_t _executed = 0;

    /**
     * Walk state of the current tick's slot. `_lane` is the lowest lane
     * with unread entries and `_head` each lane's read position, so a
     * pop is O(1). A same-tick schedule into a lane below `_lane` lowers
     * it, so that event runs next, exactly where a (tick, priority, seq)
     * heap would put it. `_walkTick == maxTick` means no slot is
     * mid-walk.
     */
    Tick _walkTick = maxTick;
    unsigned _lane = 0;
    std::array<std::size_t, numLanes> _head = {};
};

} // namespace limitless

#endif // LIMITLESS_SIM_EVENT_QUEUE_HH
