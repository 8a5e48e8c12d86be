/**
 * @file
 * Per-chip home controller: the middle tier of the two-level (--hier)
 * directory mode.
 *
 * One controller per node (like the memory controller, each node
 * chip-homes the slice of remote lines whose within-chip interleave
 * digit matches its own — see AddressMap::chipHomeOf). Toward the
 * chip's caches it acts as a home directory: it tracks local sharers in
 * a real per-chip DirectoryScheme (full-map, limited, or LimitLESS with
 * software spill — the same pointer-overflow economics as the global
 * level, operating independently), grants read copies out of its own
 * data buffer, and fans local invalidations out itself. Toward the
 * global home it acts as a single cache: it requests with RREQ/WREQ,
 * acknowledges INV with ACKC, and writes dirty data back with UPDATE —
 * so the *unmodified* global tables track one pointer per sharing chip
 * and the global LimitLESS software spill absorbs chip-sharer overflow
 * exactly as it absorbs cache-sharer overflow in flat mode.
 *
 * The controller runs on the same home core as the global home
 * (src/mem/home_core.hh): one service loop, send path, defer buffer and
 * trap charge serve both levels. All protocol behavior lives in the
 * per-scheme chip transition tables of src/mem/home/hier_home.cc
 * (TableSide::chip); process() is a single table dispatch. The chip
 * copy is sticky: the controller never evicts a chip-level copy on its
 * own (a deliberate idealization — the global directory reclaims chip
 * pointers through its own eviction/invalidation machinery), so the
 * chip FSM needs no capacity-eviction path toward the parent.
 */

#ifndef LIMITLESS_HIER_CHIP_HOME_HH
#define LIMITLESS_HIER_CHIP_HOME_HH

#include <iosfwd>

#include "hier/chip_states.hh"
#include "mem/home_core.hh"

namespace limitless
{

namespace home
{
struct HierPolicy;
} // namespace home

/** The chip home's per-line protocol state. */
struct ChipLine : DeferredRequests
{
    ChipState state = ChipState::hInvalid;
    /** Chip data differs from global memory (granted locally without a
     *  parent round trip; written back on parent recall). */
    bool dirty = false;
    bool dataSeen = false; ///< hRecall: the owner's crossed REPM arrived
    /** A parent INV arrived while a local transaction was in flight:
     *  answer the parent when the local fan-out completes. */
    bool parentInvPending = false;
    bool pendingIsWrite = false;
    std::uint32_t ackCtr = 0;
    NodeId pending = invalidNode;
    /** Chained parent level: old-head operand of the parent's RDATA,
     *  echoed back on our next ACKC so the global chain walk can
     *  continue past this chip. */
    NodeId parentChainNext = invalidNode;
    NodeId evictVictim = invalidNode; ///< hChipET victim
    std::uint32_t retries = 0;        ///< BUSY backoff rounds (parent)
    LineWords data{};                 ///< the chip-level copy
};

/** The per-node chip-home controller (two-level mode only). */
class ChipHomeController : public HomeCore
{
  public:
    ChipHomeController(EventQueue &eq, NodeId self, const AddressMap &amap,
                       const ProtocolParams &proto,
                       const MemParams &params);

    /**
     * Should a response-class packet (RDATA/WDATA/BUSY/INV/MUPD)
     * addressed to this node be consumed by the chip home rather than
     * the local cache? State-dependent: the parent's data replies are
     * only expected mid-fill, INV always belongs to the chip level
     * (local caches are only ever invalidated by their chip home), and
     * everything else is the cache's. Node::deliver consults this after
     * establishing that the packet is non-local and this node chip-homes
     * the line for its chip.
     */
    bool wantsResponse(Addr line, Opcode op) const;

    // ------------------------------------------------------------------
    // Transition-action API (driven by the tables in hier_home.cc,
    // together with the core's)
    // ------------------------------------------------------------------

    ChipLine &lineFor(Addr line) { return _lines[line]; }

    /** Grant a read copy to a local cache out of the chip data. */
    void grantRead(NodeId to, Addr line);
    /** Grant exclusive ownership to a local cache out of the chip data. */
    void grantWrite(NodeId to, Addr line);
    /** Invalidate a local cache's copy (the core's invalidation send). */
    void sendInvLocal(NodeId to, Addr line) { sendInv(to, line); }
    /** Forward the pending miss to the global home (RREQ/WREQ). */
    void forwardToParent(Addr line, bool write);
    /** Consume a parent data reply: stamp, copy the payload into the
     *  chip buffer, capture the chained old-head operand. */
    void fillFromParent(Addr line, const Packet &pkt);
    /** Re-forward after a parent BUSY nack, with binary backoff. */
    void retryParent(Addr line);
    /** Acknowledge a parent INV (clean chip); echoes parentChainNext. */
    void ackParent(Addr line);
    /** Write the dirty chip data back to the parent (closes its INV). */
    void updateParent(Addr line);
    /** Chained protocol: unblock a local cache's clean replacement. */
    void ackReplace(NodeId to, Addr line);
    /** Copy a data packet's payload into the chip data buffer. */
    void storeData(Addr line, const Packet &pkt);

    /** @name Statistics hooks for transition actions. */
    /// @{
    void noteParentInv() { _statParentInvs += 1; }
    void noteLocalGrant() { _statLocalGrants += 1; }
    void noteWorkerSet(std::size_t n) { _statWorkerSet.sample(n); }
    /// @}

    // ------------------------------------------------------------------
    // Monitor / checker access
    // ------------------------------------------------------------------

    ChipState
    lineState(Addr line) const
    {
        const ChipLine *cl = _lines.find(line);
        return cl ? cl->state : ChipState::hInvalid;
    }

    bool
    lineDirty(Addr line) const
    {
        const ChipLine *cl = _lines.find(line);
        return cl && cl->dirty;
    }

    /** The chip-level copy's words (monitor value check). */
    const LineWords *
    lineData(Addr line) const
    {
        const ChipLine *cl = _lines.find(line);
        return cl ? &cl->data : nullptr;
    }

    /** Deterministic protocol-state serialization (checker fingerprint;
     *  same exclusions as MemoryController::checkpoint). */
    void checkpoint(std::ostream &os) const;

    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (const auto &[line, cl] : _lines)
            fn(line, cl.state);
    }

  private:
    void process(PacketPtr &pkt) override;
    std::uint8_t
    stateOf(Addr line) const override
    {
        return static_cast<std::uint8_t>(lineState(line));
    }
    NodeId pendingOf(Addr line) const override
    {
        const ChipLine *cl = _lines.find(line);
        return cl ? cl->pending : invalidNode;
    }
    bool homes(Addr line) const override;
    NodeId parentOf(Addr line) const { return _amap.homeOf(line); }

    const home::HierPolicy *_policy = nullptr;
    LineMap<ChipLine> _lines;

    Counter &_statParentReqs;
    Counter &_statParentInvs;
    Counter &_statParentRetries;
    Counter &_statLocalGrants;
    Distribution &_statWorkerSet;
};

} // namespace limitless

#endif // LIMITLESS_HIER_CHIP_HOME_HH
