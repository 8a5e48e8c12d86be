/**
 * @file
 * Full-map directory (Censier & Feautrier): one presence bit per node per
 * line. Never overflows; total storage grows as O(N * memory).
 *
 * The bit-vector code here is also the LimitLESS trap handler's software
 * table (SoftwareDirTable adds only its allocation accounting).
 */

#ifndef LIMITLESS_DIRECTORY_FULL_MAP_DIR_HH
#define LIMITLESS_DIRECTORY_FULL_MAP_DIR_HH

#include <unordered_map>
#include <utility>
#include <vector>

#include "directory/directory.hh"

namespace limitless
{

/** Bit-vector directory; entries materialize lazily per touched line. */
class FullMapDir : public DirectoryScheme
{
  public:
    explicit FullMapDir(unsigned num_nodes, NodeId self = invalidNode)
        : DirectoryScheme(self), _numNodes(num_nodes),
          _wordsPerEntry((num_nodes + 63) / 64)
    {}

    DirAdd tryAdd(Addr line, NodeId n) override;
    bool canAdd(Addr, NodeId) const override { return true; }
    bool contains(Addr line, NodeId n) const override;
    void remove(Addr line, NodeId n) override;
    void clear(Addr line) override;
    void sharers(Addr line, std::vector<NodeId> &out) const override;
    std::size_t numSharers(Addr line) const override;
    void occupancy(DirOccupancy &out) const override;

    const char *name() const override { return "full-map"; }

    std::uint64_t
    bitsPerEntry(unsigned num_nodes) const override
    {
        return num_nodes;
    }

  protected:
    using Bits = std::vector<std::uint64_t>;

    /** The line's vector, allocated all-clear on first use, and whether
     *  this call allocated it. */
    std::pair<Bits &, bool> findOrCreate(Addr line);

    /** Set @p n's presence bit. */
    DirAdd set(Bits &bits, NodeId n) const;

    /** Presence bits set in @p bits. */
    static std::size_t count(const Bits &bits);

    unsigned _numNodes;
    unsigned _wordsPerEntry;
    std::unordered_map<Addr, Bits> _entries;
};

} // namespace limitless

#endif // LIMITLESS_DIRECTORY_FULL_MAP_DIR_HH
