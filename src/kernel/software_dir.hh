/**
 * @file
 * Software-extended directory state: the hash table of full-map bit
 * vectors that the LimitLESS trap handler keeps in the home node's local
 * memory (paper Section 4.4: "the trap code allocates a full-map
 * bit-vector in local memory. This vector is entered into a hash table").
 *
 * Each home directory owns one (HomeCore::softwareTable), at both
 * levels; both LimitLESS models fill it through the one copy of the
 * software, HomeCore::spillOverflow and MemoryController::gatherWrite.
 */

#ifndef LIMITLESS_KERNEL_SOFTWARE_DIR_HH
#define LIMITLESS_KERNEL_SOFTWARE_DIR_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace limitless
{

/** Hash table of spilled full-map bit vectors, one per overflowed line. */
class SoftwareDirTable
{
  public:
    explicit SoftwareDirTable(unsigned num_nodes)
        : _numNodes(num_nodes), _words((num_nodes + 63) / 64)
    {}

    bool has(Addr line) const { return _vectors.count(line) != 0; }

    /** Set one sharer bit, allocating the vector on first use. */
    void
    addSharer(Addr line, NodeId n)
    {
        Bits &bits = vectorFor(line);
        bits[n / 64] |= 1ull << (n % 64);
    }

    /** Spill a batch of hardware pointers into the vector. */
    void
    addSharers(Addr line, const std::vector<NodeId> &nodes)
    {
        if (nodes.empty())
            return;
        Bits &bits = vectorFor(line);
        for (NodeId n : nodes)
            bits[n / 64] |= 1ull << (n % 64);
    }

    bool
    contains(Addr line, NodeId n) const
    {
        auto it = _vectors.find(line);
        if (it == _vectors.end())
            return false;
        return (it->second[n / 64] >> (n % 64)) & 1;
    }

    /** Append recorded sharers to @p out. */
    void
    sharers(Addr line, std::vector<NodeId> &out) const
    {
        auto it = _vectors.find(line);
        if (it == _vectors.end())
            return;
        for (unsigned w = 0; w < _words; ++w) {
            std::uint64_t bits = it->second[w];
            while (bits) {
                out.push_back(w * 64 + std::countr_zero(bits));
                bits &= bits - 1;
            }
        }
    }

    std::size_t
    numSharers(Addr line) const
    {
        auto it = _vectors.find(line);
        if (it == _vectors.end())
            return 0;
        std::size_t n = 0;
        for (unsigned w = 0; w < _words; ++w)
            n += std::popcount(it->second[w]);
        return n;
    }

    /** Free the vector ("The vector may now be freed", paper §4.4). */
    void free(Addr line) { _vectors.erase(line); }

    std::size_t entries() const { return _vectors.size(); }
    std::size_t peakEntries() const { return _peak; }
    std::uint64_t allocations() const { return _allocations; }

    /** Emulated local-memory footprint in bytes (vectors + table slots). */
    std::size_t
    footprintBytes() const
    {
        return _vectors.size() * (_words * 8 + 16);
    }

  private:
    using Bits = std::vector<std::uint64_t>;

    Bits &
    vectorFor(Addr line)
    {
        auto [it, created] = _vectors.try_emplace(line, Bits(_words, 0));
        if (created) {
            ++_allocations;
            _peak = std::max(_peak, _vectors.size());
        }
        return it->second;
    }

    unsigned _numNodes;
    unsigned _words;
    std::unordered_map<Addr, Bits> _vectors;
    std::size_t _peak = 0;
    std::uint64_t _allocations = 0;
};

} // namespace limitless

#endif // LIMITLESS_KERNEL_SOFTWARE_DIR_HH
