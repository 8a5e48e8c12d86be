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
 * schedules) with a binary-heap overflow for far-future events. Both
 * structures order entries by the same (tick, priority, seq) key, so the
 * execution order is bit-identical to a plain priority queue; a property
 * test (tests/test_event_queue.cc) cross-checks this against a reference
 * heap scheduler on randomized workloads. Callbacks are stored in an
 * InlineFunction so scheduling an event never touches the allocator for
 * captures up to 48 bytes.
 */

#ifndef LIMITLESS_SIM_EVENT_QUEUE_HH
#define LIMITLESS_SIM_EVENT_QUEUE_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace limitless
{

/** Scheduling priorities for same-tick events (lower runs first). */
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
     * @param priority same-tick ordering (EventPriority)
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
     * Execute up to @p max earliest events through one batched loop.
     * Identical (tick, priority, seq) execution order to @p max calls of
     * runOne(), but the tick-entry work (advance, overflow migration,
     * bucket sort) is hoisted out of the per-event path: a whole wheel
     * slot's entries dispatch through one tight indirect-call loop.
     *
     * @return number of events executed (< max only when drained)
     */
    std::uint64_t runBurst(std::uint64_t max);

    /**
     * Advance now() to @p t without executing anything. Requires that no
     * event is pending before @p t and no tick bucket is mid-execution.
     * Used by the parallel kernel to align partition queues on a window
     * boundary chosen globally (the queue's own nextEventTick() may be
     * later than the window start).
     */
    void advanceTo(Tick t);

    /**
     * Execute events at exactly tick @p t whose priority is below
     * @p prioLimit, stopping (bucket mid-walk) at the first event at or
     * above the limit. Events a callback schedules for the same tick are
     * honoured, exactly as in runOne(). No-op when the earliest pending
     * event is not at @p t.
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
     *  every bucket plus the spare list (host-memory tests). */
    std::size_t reservedEntries() const;

  private:
    /** Near-horizon window: events within `wheelSpan` ticks of now()
     *  land in the wheel; everything else waits in the overflow heap
     *  until the window reaches it. */
    static constexpr unsigned wheelBits = 10;
    static constexpr Tick wheelSpan = Tick{1} << wheelBits;
    static constexpr Tick wheelMask = wheelSpan - 1;

    struct Entry
    {
        Tick when;
        std::uint32_t priority;
        std::uint64_t seq;
        Callback cb;

        // Entries are moved, never copied: deleting the copy operations
        // proves no container churn silently duplicates a callback.
        Entry(Tick w, std::uint32_t p, std::uint64_t s, Callback c)
            : when(w), priority(p), seq(s), cb(std::move(c))
        {}
        Entry(Entry &&) noexcept = default;
        Entry &operator=(Entry &&) noexcept = default;
        Entry(const Entry &) = delete;
        Entry &operator=(const Entry &) = delete;

        /** Strict-weak order: earlier (when, priority, seq) first. */
        bool
        before(const Entry &o) const
        {
            if (when != o.when)
                return when < o.when;
            if (priority != o.priority)
                return priority < o.priority;
            return seq < o.seq;
        }
    };

    /** Min-heap comparator for the overflow vector (std::push_heap is a
     *  max-heap, so invert). */
    struct OverflowLater
    {
        bool operator()(const Entry &a, const Entry &b) const
        {
            return b.before(a);
        }
    };

    void wheelInsert(Entry &&e);
    /** Move overflow entries inside the window [_now, _now + span). */
    void migrateOverflow();
    /** Advance to the earliest occupied tick and sort its bucket. */
    void enterTick();
    /** Reset a fully-walked bucket (slot, order, occupancy bit) and
     *  move its vector onto the spare list. */
    void finishBucket();
    /** Earliest occupied wheel tick, or maxTick when the wheel is empty. */
    Tick wheelNextTick() const;

    std::vector<std::vector<Entry>> _slots; ///< one bucket per wheel slot
    /** Drained buckets' vectors, handed to the next slot that fills. */
    std::vector<std::vector<Entry>> _spare;
    std::uint64_t _occupied[wheelSpan / 64] = {}; ///< slot bitmap
    std::vector<Entry> _overflow;           ///< min-heap beyond the window
    std::size_t _size = 0;                  ///< wheel + overflow entries
    Tick _now = 0;
    std::uint64_t _seq = 0;
    std::uint64_t _executed = 0;

    /**
     * Execution state of the current tick's bucket. On entering a tick
     * the bucket is sorted once and `_cursor` walks it, so popping the
     * minimum is O(1) instead of a per-event scan; same-tick schedules
     * insert in order past the cursor. `_sortedTick == maxTick` means no
     * bucket is mid-execution.
     */
    Tick _sortedTick = maxTick;
    std::size_t _cursor = 0;
    /** Execution order (indices into the sorted bucket). Sorting and
     *  same-tick inserts move these 4-byte indices instead of whole
     *  entries, so a callback never pays an InlineFunction move. */
    std::vector<std::uint32_t> _order;
};

} // namespace limitless

#endif // LIMITLESS_SIM_EVENT_QUEUE_HH
