/**
 * @file
 * Chained-directory storage (paper Section 1's comparison baseline; an
 * SCI-flavoured scheme [James et al. 1990]).
 *
 * The directory stores only a head pointer per line; the sharing list is
 * distributed through the caches as singly linked forward pointers.
 * Invalidations therefore propagate *sequentially* down the chain, which
 * is exactly the write-latency disadvantage the paper attributes to
 * chained schemes. List inserts and purges record "dir" trace events on
 * the home node, as the pointer-set schemes' transitions do.
 */

#ifndef LIMITLESS_DIRECTORY_CHAINED_DIR_HH
#define LIMITLESS_DIRECTORY_CHAINED_DIR_HH

#include <cstdint>
#include <unordered_map>

#include "directory/limited_dir.hh"
#include "sim/types.hh"

namespace limitless
{

/** Head-pointer directory for the chained protocol. */
class ChainedDir
{
  public:
    /** @param self home node the entries live on (invalidNode for a
     *  directory outside any machine) */
    explicit ChainedDir(NodeId self = invalidNode) : _self(self) {}

    /** Head of the sharing chain, or invalidNode when uncached. */
    NodeId
    head(Addr line) const
    {
        auto it = _entries.find(line);
        return it == _entries.end() ? invalidNode : it->second.head;
    }

    std::uint32_t
    chainLength(Addr line) const
    {
        auto it = _entries.find(line);
        return it == _entries.end() ? 0 : it->second.length;
    }

    /** Make @p new_head the head of the line's chain. */
    void push(Addr line, NodeId new_head);

    /** Dissolve the line's chain. */
    void clear(Addr line);

    /** Directory overhead: one node pointer plus a small count. */
    std::uint64_t
    bitsPerEntry(unsigned num_nodes) const
    {
        return 2 * LimitedDir::ceilLog2(num_nodes);
    }

  private:
    struct Entry
    {
        NodeId head = invalidNode;
        std::uint32_t length = 0;
    };

    NodeId _self;
    std::unordered_map<Addr, Entry> _entries;
};

} // namespace limitless

#endif // LIMITLESS_DIRECTORY_CHAINED_DIR_HH
