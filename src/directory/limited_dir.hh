/**
 * @file
 * Limited directory (Dir_i NB, Agarwal et al. 1988): a small fixed number
 * of pointers per entry, no broadcast. tryAdd() reports overflow when all
 * pointers are in use; the memory FSM then evicts a victim copy.
 *
 * The entry map and the pointer loops here are also the LimitLESS
 * hardware directory's (LimitlessDir adds the meta state and local bit).
 */

#ifndef LIMITLESS_DIRECTORY_LIMITED_DIR_HH
#define LIMITLESS_DIRECTORY_LIMITED_DIR_HH

#include <algorithm>
#include <array>
#include <cassert>
#include <unordered_map>

#include "directory/directory.hh"
#include "proto/states.hh"

namespace limitless
{

/** Fixed-size pointer array per entry. */
class LimitedDir : public DirectoryScheme
{
  public:
    /** Most hardware pointers any configuration may use. */
    static constexpr unsigned maxPointers = 16;

    explicit LimitedDir(unsigned pointers, NodeId self = invalidNode)
        : DirectoryScheme(self), _pointers(pointers)
    {
        assert(pointers >= 1 && pointers <= maxPointers);
    }

    DirAdd tryAdd(Addr line, NodeId n) override;
    bool canAdd(Addr line, NodeId n) const override;
    bool contains(Addr line, NodeId n) const override;
    void remove(Addr line, NodeId n) override;
    void clear(Addr line) override;
    void sharers(Addr line, std::vector<NodeId> &out) const override;
    std::size_t numSharers(Addr line) const override;
    void occupancy(DirOccupancy &out) const override;

    const char *name() const override { return "limited"; }

    std::uint64_t
    bitsPerEntry(unsigned num_nodes) const override
    {
        return _pointers * ceilLog2(num_nodes);
    }

    unsigned pointers() const { return _pointers; }

    /**
     * Round-robin victim choice for pointer eviction; deterministic so
     * runs reproduce exactly.
     */
    NodeId pickVictim(Addr line);

    static std::uint64_t
    ceilLog2(std::uint64_t v)
    {
        std::uint64_t bits = 0;
        while ((1ull << bits) < v)
            ++bits;
        return bits ? bits : 1;
    }

  protected:
    /**
     * One line's hardware entry. The local bit and the meta states are
     * LimitlessDir's (paper Section 4.3 and Table 4); Dir_i NB never sets
     * them. They fit in the padding of the map node, so both schemes share
     * one entry map at no memory cost.
     */
    struct Entry
    {
        std::array<NodeId, maxPointers> ptr{};
        std::uint8_t used = 0;
        std::uint8_t nextVictim = 0;
        bool localBit = false;
        MetaState meta = MetaState::normal;
        MetaState prevMeta = MetaState::normal;

        bool
        holds(NodeId n) const
        {
            return std::find(ptr.begin(), ptr.begin() + used, n) !=
                   ptr.begin() + used;
        }

        /** Append the pointers to @p out in slot order. */
        void
        append(std::vector<NodeId> &out) const
        {
            out.insert(out.end(), ptr.begin(), ptr.begin() + used);
        }
    };

    Entry *
    find(Addr line)
    {
        auto it = _entries.find(line);
        return it == _entries.end() ? nullptr : &it->second;
    }

    const Entry *
    find(Addr line) const
    {
        auto it = _entries.find(line);
        return it == _entries.end() ? nullptr : &it->second;
    }

    Entry &
    findOrCreate(Addr line)
    {
        return _entries.try_emplace(line).first->second;
    }

    /** Record @p n in @p e's pointers; an overflow is traced. */
    DirAdd addPointer(Entry &e, Addr line, NodeId n);

    unsigned _pointers;
    std::unordered_map<Addr, Entry> _entries;
};

} // namespace limitless

#endif // LIMITLESS_DIRECTORY_LIMITED_DIR_HH
