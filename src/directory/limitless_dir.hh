/**
 * @file
 * LimitLESS hardware directory entry: the limited directory's p pointers
 * (LimitedDir, whose entry map and pointer loops this class reuses) plus
 * the two meta-state bits of paper Table 4 and the Local Bit of paper
 * Section 4.3.
 *
 * The hardware entry only ever stores up to p pointers; the software side
 * of the scheme (full-map bit vectors in a hash table in the home node's
 * local memory) is SoftwareDirTable (src/kernel/software_dir.hh), consulted
 * by the trap handler, not by this class.
 */

#ifndef LIMITLESS_DIRECTORY_LIMITLESS_DIR_HH
#define LIMITLESS_DIRECTORY_LIMITLESS_DIR_HH

#include "directory/limited_dir.hh"

namespace limitless
{

/** LimitLESS hardware directory: pointers + meta state + local bit. */
class LimitlessDir : public LimitedDir
{
  public:
    /**
     * @param self          node this directory lives on (for the local bit)
     * @param pointers      hardware pointers per entry
     * @param use_local_bit reserve a dedicated bit for the home node
     */
    LimitlessDir(NodeId self, unsigned pointers, bool use_local_bit)
        : LimitedDir(pointers, self), _useLocalBit(use_local_bit)
    {}

    DirAdd tryAdd(Addr line, NodeId n) override;
    bool canAdd(Addr line, NodeId n) const override;
    bool contains(Addr line, NodeId n) const override;
    void remove(Addr line, NodeId n) override;
    void clear(Addr line) override;
    void sharers(Addr line, std::vector<NodeId> &out) const override;
    std::size_t numSharers(Addr line) const override;
    void occupancy(DirOccupancy &out) const override;

    const char *name() const override { return "limitless"; }

    std::uint64_t
    bitsPerEntry(unsigned num_nodes) const override
    {
        // p pointers + 2 meta-state bits + 1 local bit.
        return LimitedDir::bitsPerEntry(num_nodes) + 2 +
               (_useLocalBit ? 1 : 0);
    }

    MetaState meta(Addr line) const;
    void setMeta(Addr line, MetaState m);

    /** Meta state before the most recent setMeta (the trap handler uses
     *  this to learn why a packet was diverted). */
    MetaState prevMeta(Addr line) const;

    /**
     * Empty the hardware pointer array into @p out (the trap handler's
     * "empty the pointers into the software vector" step). The local bit
     * is preserved in hardware: the home node's copy stays tracked there
     * so local reads keep hitting in hardware.
     */
    void spillPointers(Addr line, std::vector<NodeId> &out);

  private:
    /** Is @p n's copy tracked by the local bit rather than a pointer? */
    bool isLocal(NodeId n) const { return _useLocalBit && n == _self; }

    bool _useLocalBit;
};

} // namespace limitless

#endif // LIMITLESS_DIRECTORY_LIMITLESS_DIR_HH
