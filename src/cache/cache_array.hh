/**
 * @file
 * Direct-mapped cache storage (64K bytes of 16-byte lines per Alewife
 * node). Stores real data words so end-to-end value correctness is
 * checkable, not just timing.
 */

#ifndef LIMITLESS_CACHE_CACHE_ARRAY_HH
#define LIMITLESS_CACHE_CACHE_ARRAY_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <deque>
#include <vector>

#include "machine/address_map.hh"
#include "proto/states.hh"
#include "sim/log.hh"
#include "sim/types.hh"

namespace limitless
{

/** One cache line. */
struct CacheLine
{
    Addr tag = 0; ///< line-aligned address
    CacheState state = CacheState::invalid;
    /** Chain pointer for the chained-directory protocol. */
    NodeId chainNext = invalidNode;
    std::array<std::uint64_t, AddressMap::maxWordsPerLine> words{};

    bool valid() const { return state != CacheState::invalid; }
};

/**
 * Direct-mapped tag + data array. A set gets its line record on its first
 * fill, so a node pays for the sets its run touches, not for the
 * configured capacity: a small open-addressing index maps each filled set
 * to a record in a pool that only grows. The index starts at 16 slots on
 * the first fill and doubles at half load; a 1,024-node Weather run fills
 * about 12 of each node's 4,096 sets. Records live in a std::deque, whose
 * push_back never moves existing elements, so a CacheLine pointer or
 * reference (CacheCtx::cl, the line an install returns) stays valid while
 * other sets fill.
 */
class CacheArray
{
  public:
    CacheArray(std::uint64_t cache_bytes, const AddressMap &amap)
        : _amap(amap), _numSets(cache_bytes / amap.lineBytes())
    {
        assert(_numSets >= 1);
        assert((_numSets & (_numSets - 1)) == 0 &&
               "set count must be a power of two");
        if (_numSets > maxSets)
            fatal("cache of %zu sets exceeds the %zu-set index",
                  _numSets, maxSets);
    }

    std::size_t numSets() const { return _numSets; }

    std::size_t
    indexOf(Addr line) const
    {
        return (line >> _amap.lineShift()) & (_numSets - 1);
    }

    /** Record of set @p set (valid or not), or nullptr before the set's
     *  first fill. */
    CacheLine *
    atSet(std::size_t set)
    {
        const std::uint16_t r = slotOf(set).record;
        return r == noRecord ? nullptr : &_lines[r - 1];
    }

    const CacheLine *
    atSet(std::size_t set) const
    {
        const std::uint16_t r = slotOf(set).record;
        return r == noRecord ? nullptr : &_lines[r - 1];
    }

    /** Matching valid line, or nullptr. */
    CacheLine *
    lookup(Addr line)
    {
        CacheLine *cl = atSet(indexOf(line));
        return (cl && cl->valid() && cl->tag == line) ? cl : nullptr;
    }

    const CacheLine *
    lookup(Addr line) const
    {
        const CacheLine *cl = atSet(indexOf(line));
        return (cl && cl->valid() && cl->tag == line) ? cl : nullptr;
    }

    /** Overwrite the set with a new resident line. */
    CacheLine &
    install(Addr line, CacheState state,
            const std::uint64_t *data, unsigned words)
    {
        const std::size_t set = indexOf(line);
        std::uint16_t r = slotOf(set).record;
        if (r == noRecord) {
            _lines.emplace_back();
            r = static_cast<std::uint16_t>(_lines.size());
            addSet(set, r);
        }
        CacheLine &cl = _lines[r - 1];
        cl.tag = line;
        cl.state = state;
        cl.chainNext = invalidNode;
        for (unsigned i = 0; i < words; ++i)
            cl.words[i] = data[i];
        return cl;
    }

    /** Number of valid lines (for tests / occupancy stats). */
    std::size_t
    validLines() const
    {
        std::size_t n = 0;
        for (const auto &cl : _lines)
            n += cl.valid();
        return n;
    }

    /** Iterate valid lines in first-fill order (coherence-monitor
     *  support); the cost scales with the sets filled, not numSets(). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const auto &cl : _lines)
            if (cl.valid())
                fn(cl);
    }

    /** Call @p fn(set, record) for every filled set, valid or not, in
     *  ascending set order whatever the fill order (checkpoints); the
     *  cost scales with the sets filled, not numSets(). */
    template <typename Fn>
    void
    forEachFilledSet(Fn &&fn) const
    {
        std::vector<Slot> filled;
        filled.reserve(_lines.size());
        for (const Slot &s : _slots)
            if (s.record != noRecord)
                filled.push_back(s);
        std::sort(filled.begin(), filled.end(),
                  [](const Slot &a, const Slot &b) { return a.set < b.set; });
        for (const Slot &s : filled)
            fn(std::size_t{s.set}, _lines[s.record - 1]);
    }

  private:
    /** Record value of an empty index slot; any other value is one past
     *  the record's position in _lines. */
    static constexpr std::uint16_t noRecord = 0;
    static constexpr std::size_t maxSets = 0xffff;
    static constexpr std::size_t firstSlots = 16;

    struct Slot
    {
        std::uint16_t set;
        std::uint16_t record; ///< noRecord or record + 1
    };

    /** Fibonacci hash of a set number onto the index's slots. */
    std::size_t
    hashOf(std::size_t set) const
    {
        return (static_cast<std::uint32_t>(set) * 0x9e3779b9u) >> _shift;
    }

    /** The slot holding @p set, or the empty slot that ends its probe. */
    const Slot &
    slotOf(std::size_t set) const
    {
        static constexpr Slot none{0, noRecord};
        if (_slots.empty())
            return none;
        const std::size_t mask = _slots.size() - 1;
        for (std::size_t i = hashOf(set);; i = (i + 1) & mask) {
            const Slot &s = _slots[i];
            if (s.record == noRecord || s.set == set)
                return s;
        }
    }

    /** Index a newly filled set, growing the index past half load. */
    void
    addSet(std::size_t set, std::uint16_t record)
    {
        if (2 * _lines.size() > _slots.size()) {
            const std::size_t slots =
                _slots.empty() ? firstSlots : 2 * _slots.size();
            std::vector<Slot> old(slots, Slot{0, noRecord});
            old.swap(_slots);
            _shift = static_cast<unsigned>(32 - std::countr_zero(slots));
            for (const Slot &s : old)
                if (s.record != noRecord)
                    place(s);
        }
        place(Slot{static_cast<std::uint16_t>(set), record});
    }

    void
    place(const Slot &s)
    {
        const std::size_t mask = _slots.size() - 1;
        std::size_t i = hashOf(s.set);
        while (_slots[i].record != noRecord)
            i = (i + 1) & mask;
        _slots[i] = s;
    }

    const AddressMap &_amap;
    std::size_t _numSets;
    std::vector<Slot> _slots; ///< open addressing; empty until a fill
    unsigned _shift = 32;     ///< 32 - log2(_slots.size())
    std::deque<CacheLine> _lines; ///< one record per filled set
};

} // namespace limitless

#endif // LIMITLESS_CACHE_CACHE_ARRAY_HH
