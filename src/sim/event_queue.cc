#include "sim/event_queue.hh"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/host_profiler.hh"

namespace limitless
{

EventQueue::EventQueue() : _slots(wheelSpan)
{
    // Pre-size the overflow heap so steady-state scheduling never grows
    // it. A drained bucket hands its vector to the spare list and an
    // empty slot takes one back, so retained capacity follows the
    // buckets live at once rather than every slot's busiest tick, and
    // after warm-up a schedule() is still a plain store into an
    // existing vector.
    _overflow.reserve(1024);
}

void
EventQueue::schedule(Tick when, Callback cb, int priority)
{
    assert(when >= _now && "cannot schedule into the past");
    Entry e(when, static_cast<std::uint32_t>(priority), _seq++,
            std::move(cb));
    if (when == _now && _sortedTick == _now) {
        // The current tick's bucket is mid-execution and sorted; insert
        // the new entry's index in order past the cursor so the walk
        // stays the global minimum. The entry itself just appends.
        std::vector<Entry> &slot = _slots[when & wheelMask];
        const auto pos = std::lower_bound(
            _order.begin() + static_cast<std::ptrdiff_t>(_cursor),
            _order.end(), e,
            [&slot](std::uint32_t idx, const Entry &b) {
                return slot[idx].before(b);
            });
        _order.insert(pos, static_cast<std::uint32_t>(slot.size()));
        slot.push_back(std::move(e));
    } else if (when - _now < wheelSpan)
        wheelInsert(std::move(e));
    else {
        _overflow.push_back(std::move(e));
        std::push_heap(_overflow.begin(), _overflow.end(), OverflowLater{});
    }
    ++_size;
}

void
EventQueue::wheelInsert(Entry &&e)
{
    const std::size_t slot = e.when & wheelMask;
    std::vector<Entry> &bucket = _slots[slot];
    if (bucket.capacity() == 0 && !_spare.empty()) {
        bucket = std::move(_spare.back());
        _spare.pop_back();
    }
    bucket.push_back(std::move(e));
    _occupied[slot / 64] |= std::uint64_t{1} << (slot % 64);
}

void
EventQueue::migrateOverflow()
{
    while (!_overflow.empty() && _overflow.front().when - _now < wheelSpan) {
        std::pop_heap(_overflow.begin(), _overflow.end(), OverflowLater{});
        Entry e = std::move(_overflow.back());
        _overflow.pop_back();
        wheelInsert(std::move(e));
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
    for (const std::vector<Entry> &bucket : _slots)
        n += bucket.capacity();
    for (const std::vector<Entry> &bucket : _spare)
        n += bucket.capacity();
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
    // Enter the next occupied tick: advance _now, migrate overflow
    // entries the window now covers, and sort the tick's bucket once
    // so the cursor walk pops minima in O(1).
    const Tick t = nextEventTick();
    assert(t != maxTick && t >= _now);
    _now = t;
    migrateOverflow();

    std::vector<Entry> &entered = _slots[t & wheelMask];
    assert(!entered.empty());
    // Sort indices, not entries: moving 4-byte indices is far
    // cheaper than shuffling Entry objects (each move invokes the
    // InlineFunction manager), and the entries stay put so indices
    // stay valid across the bucket's push_backs.
    _order.resize(entered.size());
    for (std::uint32_t i = 0; i < _order.size(); ++i)
        _order[i] = i;
    std::sort(_order.begin(), _order.end(),
              [&entered](std::uint32_t a, std::uint32_t b) {
                  return entered[a].before(entered[b]);
              });
    _sortedTick = t;
    _cursor = 0;
}

void
EventQueue::finishBucket()
{
    std::vector<Entry> &slot = _slots[_now & wheelMask];
    slot.clear();
    _spare.push_back(std::move(slot));
    _order.clear();
    _cursor = 0;
    _sortedTick = maxTick;
    const std::size_t s = _now & wheelMask;
    _occupied[s / 64] &= ~(std::uint64_t{1} << (s % 64));
}

bool
EventQueue::runOne()
{
    if (_size == 0)
        return false;

    if (_sortedTick != _now)
        enterTick();

    std::vector<Entry> &slot = _slots[_now & wheelMask];
    assert(_cursor < _order.size());
    Callback cb = std::move(slot[_order[_cursor]].cb);
    ++_cursor;
    --_size;
    ++_executed;
    cb();

    // Entries behind the cursor are spent; once the callback has had its
    // chance to add same-tick work, a fully-walked bucket resets.
    if (_cursor >= _order.size())
        finishBucket();
    return true;
}

std::uint64_t
EventQueue::runBurst(std::uint64_t max)
{
    PROF_SCOPE("eq.burst");
    std::uint64_t n = 0;
    while (n < max && _size != 0) {
        if (_sortedTick != _now)
            enterTick();
        // Dispatch the whole bucket through one tight loop. The slot and
        // order vectors must be re-indexed every iteration: a callback's
        // same-tick schedule() push_back can reallocate either one.
        while (n < max && _cursor < _order.size()) {
            Callback cb =
                std::move(_slots[_now & wheelMask][_order[_cursor]].cb);
            ++_cursor;
            --_size;
            ++_executed;
            ++n;
            cb();
        }
        if (_cursor >= _order.size())
            finishBucket();
    }
    return n;
}

void
EventQueue::advanceTo(Tick t)
{
    assert(t >= _now && "cannot advance into the past");
    assert(_sortedTick == maxTick && "advanceTo with a bucket mid-walk");
    assert(nextEventTick() >= t && "advanceTo would skip pending events");
    // Every wheel entry was inserted with when - now < span at a now no
    // later than t, and none is earlier than t, so all occupied slots
    // stay inside the new [t, t + span) window: no rehash needed.
    _now = t;
}

std::uint64_t
EventQueue::runTickBelow(Tick t, int prioLimit)
{
    const auto limit = static_cast<std::uint32_t>(prioLimit);
    std::uint64_t n = 0;
    while (_size != 0 && nextEventTick() == t) {
        if (_sortedTick != t)
            enterTick();
        std::vector<Entry> &slot = _slots[t & wheelMask];
        if (slot[_order[_cursor]].priority >= limit)
            break; // bucket stays mid-walk for runTickRemainder()
        Callback cb = std::move(slot[_order[_cursor]].cb);
        ++_cursor;
        --_size;
        ++_executed;
        ++n;
        cb();
        if (_cursor >= _order.size())
            finishBucket();
    }
    return n;
}

std::uint64_t
EventQueue::runTickRemainder(Tick t)
{
    std::uint64_t n = 0;
    while (_size != 0 && nextEventTick() == t) {
        if (_sortedTick != t)
            enterTick();
        std::vector<Entry> &slot = _slots[t & wheelMask];
        Callback cb = std::move(slot[_order[_cursor]].cb);
        ++_cursor;
        --_size;
        ++_executed;
        ++n;
        cb();
        if (_cursor >= _order.size())
            finishBucket();
    }
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
    if (_now < limit)
        _now = limit;
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
