#include "sim/event_queue.hh"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <utility>

#include "obs/host_profiler.hh"
#include "sim/log.hh"

namespace limitless
{

EventQueue::EventQueue() : _slots(wheelSpan)
{
    // Pre-size the overflow heap so steady-state scheduling never grows
    // it. A drained lane hands its vector to the spare list and an
    // empty lane takes one back, so retained capacity follows the lanes
    // live at once rather than every slot's busiest tick, and after
    // warm-up a schedule() is still a plain store into an existing
    // vector.
    _overflow.reserve(1024);
}

unsigned
EventQueue::laneOf(int priority)
{
    // EventPriority values are multiples of ten; index by the tens digit
    // so mapping a priority costs no branch per value.
    constexpr int byTens[] = {0, 1, 2, 3, -1, -1, -1, -1, -1, 4};
    const auto tens = static_cast<unsigned>(priority) / 10;
    const bool valid = priority % 10 == 0 && tens < std::size(byTens) &&
                       byTens[tens] >= 0;
    if (!valid) [[unlikely]]
        panic("EventQueue: priority %d is not an EventPriority value",
              priority);
    return static_cast<unsigned>(byTens[tens]);
}

void
EventQueue::schedule(Tick when, Callback cb, int priority)
{
    assert(when >= _now && "cannot schedule into the past");
    const unsigned lane = laneOf(priority);
    if (when - _now < wheelSpan) {
        wheelInsert(when, lane, std::move(cb));
        // A same-tick event below the lane being walked runs next.
        if (when == _walkTick && lane < _lane)
            _lane = lane;
    } else {
        _overflow.push_back({when, lane, _seq++, std::move(cb)});
        std::push_heap(_overflow.begin(), _overflow.end(), OverflowLater{});
    }
    ++_size;
}

void
EventQueue::wheelInsert(Tick when, unsigned lane, Callback &&cb)
{
    const std::size_t slot = when & wheelMask;
    Lane &l = _slots[slot][lane];
    if (l.capacity() == 0 && !_spare.empty()) {
        l = std::move(_spare.back());
        _spare.pop_back();
    }
    l.push_back(std::move(cb));
    _occupied[slot / 64] |= std::uint64_t{1} << (slot % 64);
}

void
EventQueue::migrateOverflow()
{
    // The heap pops in (when, lane, seq) order, so entries sharing a lane
    // append in seq order, and none of that lane's entries can be in the
    // wheel yet: any schedule for the tick so far went to the heap too.
    while (!_overflow.empty() && _overflow.front().when - _now < wheelSpan) {
        std::pop_heap(_overflow.begin(), _overflow.end(), OverflowLater{});
        OverflowEntry &e = _overflow.back();
        wheelInsert(e.when, e.lane, std::move(e.cb));
        _overflow.pop_back();
    }
}

Tick
EventQueue::wheelNextTick() const
{
    // Scan the occupancy bitmap circularly from now's slot. Every wheel
    // entry's tick is within [now, now + span), so the first occupied
    // slot at circular distance d holds exactly the events for now + d.
    constexpr std::size_t words = wheelSpan / 64;
    const std::size_t base = _now & wheelMask;
    const std::size_t baseWord = base / 64;
    const unsigned baseBit = base % 64;

    // First word: only bits at or above the base bit belong to [now, ...).
    std::uint64_t w = _occupied[baseWord] & (~std::uint64_t{0} << baseBit);
    if (w)
        return _now + (std::countr_zero(w) - baseBit);
    for (std::size_t i = 1; i <= words; ++i) {
        const std::size_t wi = (baseWord + i) % words;
        w = _occupied[wi];
        if (wi == baseWord) // wrapped: bits below base are now + span - ...
            w &= ~(~std::uint64_t{0} << baseBit);
        if (w) {
            const std::size_t slot = wi * 64 + std::countr_zero(w);
            const std::size_t dist = (slot + wheelSpan - base) & wheelMask;
            return _now + dist;
        }
    }
    return maxTick;
}

std::size_t
EventQueue::reservedEntries() const
{
    std::size_t n = 0;
    for (const Slot &slot : _slots)
        for (const Lane &lane : slot)
            n += lane.capacity();
    for (const Lane &lane : _spare)
        n += lane.capacity();
    return n;
}

Tick
EventQueue::nextEventTick() const
{
    if (_size == 0)
        return maxTick;
    // Un-migrated overflow entries still carry their true tick, so the
    // minimum over both structures is exact without mutating state.
    const Tick wheel = wheelNextTick();
    const Tick over = _overflow.empty() ? maxTick : _overflow.front().when;
    return wheel < over ? wheel : over;
}

void
EventQueue::enterTick()
{
    // Enter the next occupied tick: advance _now, migrate the overflow
    // entries the window now covers, and point the walk at the slot's
    // first non-empty lane.
    const Tick t = nextEventTick();
    assert(t != maxTick && t >= _now);
    _now = t;
    migrateOverflow();
    _walkTick = t;
    const Slot &slot = _slots[t & wheelMask];
    _lane = 0;
    while (slot[_lane].empty())
        ++_lane;
}

bool
EventQueue::walkTick(Tick t)
{
    if (_walkTick == t)
        return true;
    if (_size == 0 || nextEventTick() != t)
        return false;
    enterTick();
    return true;
}

void
EventQueue::runNext()
{
    Slot &slot = _slots[_walkTick & wheelMask];
    // Move the callback out before running it: its own schedule() may
    // append to this lane and reallocate it.
    Callback cb = std::move(slot[_lane][_head[_lane]++]);
    --_size;
    ++_executed;
    cb();
    // The callback may have appended to any lane of this tick, and
    // lowered _lane to the one it appended to. Lanes below _lane are
    // drained, so the walk only ever moves up from it. A drained lane
    // hands its vector to the spare list at once, so the next lane to
    // fill can reuse it even within this tick.
    while (_head[_lane] == slot[_lane].size()) {
        Lane &drained = slot[_lane];
        if (drained.capacity() != 0) {
            drained.clear();
            _spare.push_back(std::move(drained));
        }
        _head[_lane] = 0;
        if (++_lane == numLanes) {
            const std::size_t s = _walkTick & wheelMask;
            _occupied[s / 64] &= ~(std::uint64_t{1} << (s % 64));
            _walkTick = maxTick;
            return;
        }
    }
}

bool
EventQueue::runOne()
{
    if (_size == 0)
        return false;
    if (_walkTick == maxTick)
        enterTick();
    runNext();
    return true;
}

std::uint64_t
EventQueue::runBurst(std::uint64_t max)
{
    PROF_SCOPE("eq.burst");
    std::uint64_t n = 0;
    for (; n < max && _size != 0; ++n) {
        if (_walkTick == maxTick)
            enterTick();
        runNext();
    }
    return n;
}

void
EventQueue::advanceTo(Tick t)
{
    assert(t >= _now && "cannot advance into the past");
    assert(_walkTick == maxTick && "advanceTo with a tick mid-walk");
    assert(nextEventTick() >= t && "advanceTo would skip pending events");
    // Every wheel entry was inserted with when - now < span at a now no
    // later than t, and none is earlier than t, so all occupied slots
    // stay inside the new [t, t + span) window: no rehash needed.
    _now = t;
    migrateOverflow();
}

std::uint64_t
EventQueue::runTickBelow(Tick t, int prioLimit)
{
    const unsigned limit = laneOf(prioLimit);
    std::uint64_t n = 0;
    // Stopping below the limit leaves the tick mid-walk for
    // runTickRemainder().
    for (; walkTick(t) && _lane < limit; ++n)
        runNext();
    return n;
}

std::uint64_t
EventQueue::runTickRemainder(Tick t)
{
    std::uint64_t n = 0;
    for (; walkTick(t); ++n)
        runNext();
    return n;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    std::uint64_t n = 0;
    while (_size != 0 && nextEventTick() <= limit) {
        runOne();
        ++n;
    }
    if (_now < limit) {
        _now = limit;
        migrateOverflow();
    }
    return n;
}

std::uint64_t
EventQueue::run()
{
    std::uint64_t n = 0;
    while (runOne())
        ++n;
    return n;
}

} // namespace limitless
