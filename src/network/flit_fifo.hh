/**
 * @file
 * Flit buffer for the wormhole fabric's router ports.
 *
 * The mesh probes and advances these FIFOs on every network cycle for
 * every active router, so they are a Ring (src/sim/ring.hh): empty /
 * front / pop are a couple of loads, and a port allocates nothing until
 * its first flit arrives. A port may declare a hard bound (its credit
 * allotment); its ring then allocates the bound at the first push and
 * never grows, and a push past the bound panics rather than silently
 * reordering packets: credits are supposed to make that unreachable,
 * and at 1024 nodes a silent wraparound would corrupt packet order far
 * from the bug.
 */

#ifndef LIMITLESS_NETWORK_FLIT_FIFO_HH
#define LIMITLESS_NETWORK_FLIT_FIFO_HH

#include <cassert>
#include <cstddef>

#include "sim/log.hh"
#include "sim/ring.hh"
#include "sim/types.hh"

namespace limitless
{

struct Packet;

/** One flit on the wire; packets decompose into 1 routing flit plus
 *  flitsPerWord flits per word. */
struct Flit
{
    Packet *pkt;  ///< owning fabric frees in-flight flits on teardown
    bool head;
    bool tail;
    NodeId dest;
};

/** Ring of flits with an optional hard bound. */
class FlitFifo
{
  public:
    bool empty() const { return _ring.empty(); }
    std::size_t size() const { return _ring.size(); }
    std::size_t capacity() const { return _ring.capacity(); }
    std::size_t bound() const { return _bound; }
    const Flit &front() const { return _ring.front(); }

    /** i-th element from the front (teardown scan). */
    const Flit &at(std::size_t i) const { return _ring[i]; }

    /**
     * Cap occupancy at @p flits (0 = unbounded), before the first push.
     * Bounded ports are the credit-controlled mesh inputs; the Local
     * injection port stays unbounded and simply grows.
     */
    void
    setBound(std::size_t flits)
    {
        assert(_ring.capacity() == 0 && "setBound after the first push");
        _bound = flits;
        _ring = Ring<Flit>(flits ? flits : unboundedFirstCapacity);
    }

    void
    push_back(const Flit &f)
    {
        if (_bound && _ring.size() >= _bound)
            panic("flit fifo overflow: %zu flits buffered, bound %zu — "
                  "credit flow control violated",
                  _ring.size(), _bound);
        _ring.push_back(f);
    }

    void pop_front() { _ring.pop_front(); }

  private:
    static constexpr std::size_t unboundedFirstCapacity = 16;

    Ring<Flit> _ring{unboundedFirstCapacity};
    std::size_t _bound = 0;
};

} // namespace limitless

#endif // LIMITLESS_NETWORK_FLIT_FIFO_HH
