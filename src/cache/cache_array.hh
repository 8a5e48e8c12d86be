/**
 * @file
 * Direct-mapped cache storage (64K bytes of 16-byte lines per Alewife
 * node). Stores real data words so end-to-end value correctness is
 * checkable, not just timing.
 */

#ifndef LIMITLESS_CACHE_CACHE_ARRAY_HH
#define LIMITLESS_CACHE_CACHE_ARRAY_HH

#include <array>
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
 * configured capacity: a dense 16-bit index maps each set to a record in
 * a pool that only grows. Records live in a std::deque, whose push_back
 * never moves existing elements, so a CacheLine pointer or reference
 * (CacheCtx::cl, the line an install returns) stays valid while other
 * sets fill.
 */
class CacheArray
{
  public:
    CacheArray(std::uint64_t cache_bytes, const AddressMap &amap)
        : _amap(amap), _numSets(cache_bytes / amap.lineBytes()),
          _index(_numSets, noRecord)
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
        const std::uint16_t r = _index[set];
        return r == noRecord ? nullptr : &_lines[r - 1];
    }

    const CacheLine *
    atSet(std::size_t set) const
    {
        const std::uint16_t r = _index[set];
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
        std::uint16_t &r = _index[indexOf(line)];
        if (r == noRecord) {
            _lines.emplace_back();
            r = static_cast<std::uint16_t>(_lines.size());
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

  private:
    /** Index value of a set that has never been filled; any other value
     *  is one past the record's position in _lines. */
    static constexpr std::uint16_t noRecord = 0;
    static constexpr std::size_t maxSets = 0xffff;

    const AddressMap &_amap;
    std::size_t _numSets;
    std::vector<std::uint16_t> _index; ///< per set: noRecord or record + 1
    std::deque<CacheLine> _lines;      ///< one record per filled set
};

} // namespace limitless

#endif // LIMITLESS_CACHE_CACHE_ARRAY_HH
