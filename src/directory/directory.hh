/**
 * @file
 * Pointer-set storage behind a directory entry.
 *
 * The memory-side protocol FSM (src/mem) is identical for the full-map,
 * limited, and LimitLESS schemes (paper Section 3.2: "the LimitLESS
 * protocol has the same state transition diagram as the full-map
 * protocol"); what differs is the pointer-set storage, captured by this
 * interface. The chained directory does not fit a pointer-set abstraction
 * and has its own FSM.
 */

#ifndef LIMITLESS_DIRECTORY_DIRECTORY_HH
#define LIMITLESS_DIRECTORY_DIRECTORY_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace limitless
{

struct TraceEvent;

/** Outcome of recording a new sharer. */
enum class DirAdd
{
    added,    ///< recorded in a free pointer
    present,  ///< already recorded
    overflow, ///< no pointer available (limited / LimitLESS hardware)
};

/**
 * Point-in-time pointer-storage occupancy, for telemetry gauges: how full
 * the hardware pointer arrays are across all materialized entries.
 */
struct DirOccupancy
{
    std::uint64_t entries = 0;      ///< lines with a materialized entry
    std::uint64_t pointersUsed = 0; ///< pointers / presence bits in use
    std::uint64_t pointerSlots = 0; ///< hardware slots across those entries
};

/** Abstract pointer-set directory storage. */
class DirectoryScheme
{
  public:
    virtual ~DirectoryScheme() = default;

    /** Record node n as a sharer of line. */
    virtual DirAdd tryAdd(Addr line, NodeId n) = 0;

    /**
     * Pure overflow probe: would tryAdd(line, n) succeed? Used as a
     * transition guard; unlike tryAdd it must not mutate the entry or
     * record trace events.
     */
    virtual bool canAdd(Addr line, NodeId n) const = 0;

    virtual bool contains(Addr line, NodeId n) const = 0;

    /** Forget one sharer (no-op if absent). */
    virtual void remove(Addr line, NodeId n) = 0;

    /** Forget all sharers. */
    virtual void clear(Addr line) = 0;

    /** Append all recorded sharers to @p out. */
    virtual void sharers(Addr line, std::vector<NodeId> &out) const = 0;

    virtual std::size_t numSharers(Addr line) const = 0;

    /** Accumulate current pointer-array occupancy into @p out. Walks the
     *  entry table, so callers sample it (telemetry windows), never poll
     *  it on the protocol hot path. */
    virtual void occupancy(DirOccupancy &out) const = 0;

    virtual const char *name() const = 0;

    /**
     * Directory storage per memory line, in bits, for the memory-overhead
     * comparison (paper Section 1: full-map grows O(N^2) in total).
     */
    virtual std::uint64_t bitsPerEntry(unsigned num_nodes) const = 0;

  protected:
    /** @param self home node the entries live on (invalidNode for a
     *  directory outside any machine) */
    explicit DirectoryScheme(NodeId self) : _self(self) {}

    /** A "dir" trace event on @p line at this home, stamped with the
     *  flight recorder's clock: directories have no clock of their own. */
    TraceEvent traceEvent(const char *name, Addr line) const;

    NodeId _self;
};

} // namespace limitless

#endif // LIMITLESS_DIRECTORY_DIRECTORY_HH
