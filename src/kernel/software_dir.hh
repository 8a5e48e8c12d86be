/**
 * @file
 * Software-extended directory state: the hash table of full-map bit
 * vectors that the LimitLESS trap handler keeps in the home node's local
 * memory (paper Section 4.4: "the trap code allocates a full-map
 * bit-vector in local memory. This vector is entered into a hash table").
 * It is a FullMapDir, the full-map scheme's own bit vectors; this class
 * adds only the allocation, peak and footprint accounting.
 *
 * Each home directory owns one (HomeCore::softwareTable), at both
 * levels; both LimitLESS models fill it through the one copy of the
 * software, HomeCore::spillOverflow and MemoryController::gatherWrite.
 */

#ifndef LIMITLESS_KERNEL_SOFTWARE_DIR_HH
#define LIMITLESS_KERNEL_SOFTWARE_DIR_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "directory/full_map_dir.hh"

namespace limitless
{

/** Hash table of spilled full-map bit vectors, one per overflowed line. */
class SoftwareDirTable final : public FullMapDir
{
  public:
    explicit SoftwareDirTable(unsigned num_nodes) : FullMapDir(num_nodes) {}

    bool has(Addr line) const { return _entries.count(line) != 0; }

    /** Set one sharer bit, allocating the vector on first use. */
    DirAdd
    tryAdd(Addr line, NodeId n) override
    {
        return set(allocate(line), n);
    }

    void addSharer(Addr line, NodeId n) { tryAdd(line, n); }

    /** Spill a batch of hardware pointers into the vector. */
    void
    addSharers(Addr line, const std::vector<NodeId> &nodes)
    {
        if (nodes.empty())
            return;
        Bits &bits = allocate(line);
        for (NodeId n : nodes)
            set(bits, n);
    }

    /** Free the vector ("The vector may now be freed", paper §4.4). */
    void free(Addr line) { _entries.erase(line); }

    std::size_t entries() const { return _entries.size(); }
    std::size_t peakEntries() const { return _peak; }
    std::uint64_t allocations() const { return _allocations; }

    /** Emulated local-memory footprint in bytes (vectors + table slots). */
    std::size_t
    footprintBytes() const
    {
        return _entries.size() * (_wordsPerEntry * 8 + 16);
    }

  private:
    Bits &
    allocate(Addr line)
    {
        auto [bits, created] = findOrCreate(line);
        if (created) {
            ++_allocations;
            _peak = std::max(_peak, _entries.size());
        }
        return bits;
    }

    std::size_t _peak = 0;
    std::uint64_t _allocations = 0;
};

} // namespace limitless

#endif // LIMITLESS_KERNEL_SOFTWARE_DIR_HH
