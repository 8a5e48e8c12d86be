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
 * All protocol behavior lives in the per-scheme chip transition tables
 * of src/mem/home/hier_home.cc (TableSide::chip); process() is a single
 * table dispatch, mirroring the MemoryController. The chip copy is
 * sticky: the controller never evicts a chip-level copy on its own
 * (a deliberate idealization — the global directory reclaims chip
 * pointers through its own eviction/invalidation machinery), so the
 * chip FSM needs no capacity-eviction path toward the parent.
 */

#ifndef LIMITLESS_HIER_CHIP_HOME_HH
#define LIMITLESS_HIER_CHIP_HOME_HH

#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <unordered_map>
#include <vector>

#include "directory/directory.hh"
#include "directory/limitless_dir.hh"
#include "hier/chip_states.hh"
#include "kernel/software_dir.hh"
#include "machine/address_map.hh"
#include "mem/memory_controller.hh"
#include "proto/packet.hh"
#include "proto/protocol_params.hh"
#include "proto/transition.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace limitless
{

namespace home
{
struct HierPolicy;
} // namespace home

/** The chip home's per-line protocol state. */
struct ChipLine
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
    std::vector<PacketPtr> deferred;  ///< parked local requests
};

/** The per-node chip-home controller (two-level mode only). */
class ChipHomeController
{
  public:
    using SendFn = std::function<void(PacketPtr)>;
    using TrapStallFn = std::function<void(Tick)>;

    ChipHomeController(EventQueue &eq, NodeId self, const AddressMap &amap,
                       const ProtocolParams &proto,
                       const MemParams &params);

    void setSend(SendFn fn) { _send = std::move(fn); }
    void setTrapStall(TrapStallFn fn) { _trapStall = std::move(fn); }
    void
    setTelemetrySinks(Log2Histogram *worker_set,
                      Log2Histogram *trap_service)
    {
        _wsProfile = worker_set;
        _trapServiceHist = trap_service;
    }

    /** Protocol packet arriving from the chip's caches or the parent. */
    void enqueue(PacketPtr pkt);

    NodeId nodeId() const { return _self; }
    const ProtocolParams &protocol() const { return _proto; }
    StatSet &stats() { return _stats; }
    bool idle() const { return _queue.empty() && !_serviceScheduled; }
    std::size_t queueDepth() const { return _queue.size(); }
    Tick now() const { return _eq.now(); }

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

    /** Fraction of local requests that took the chip software path. */
    double overflowFraction() const;

    // ------------------------------------------------------------------
    // Transition-action API (driven by the tables in hier_home.cc)
    // ------------------------------------------------------------------

    ChipLine &
    lineFor(Addr line)
    {
        if (line == _mruLineAddr)
            return *_mruLine;
        ChipLine &cl = _lines.try_emplace(line).first->second;
        _mruLineAddr = line;
        _mruLine = &cl;
        return cl;
    }

    /** Grant a read copy to a local cache out of the chip data. */
    void grantRead(NodeId to, Addr line);
    /** Grant exclusive ownership to a local cache out of the chip data. */
    void grantWrite(NodeId to, Addr line);
    /** Invalidate a local cache's copy (removes it from the chip dir). */
    void sendInvLocal(NodeId to, Addr line);
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

    void deferOrBusy(PacketPtr &pkt, ChipLine &cl);
    void replayDeferred(ChipLine &cl);

    /** Charge Ts emulation cycles for a chip-level software trap. */
    void chargeTrap(Tick cycles, NodeId requester, Addr line);

    /** @name Statistics hooks for transition actions. */
    /// @{
    void noteRead() { _statReads += 1; }
    void noteWrite() { _statWrites += 1; }
    void noteEviction() { _statEvictions += 1; }
    void noteStaleAck() { _statStaleAcks += 1; }
    void noteParentInv() { _statParentInvs += 1; }
    void noteLocalGrant() { _statLocalGrants += 1; }
    void noteReadTrapTaken() { _statReadTraps += 1; }
    void noteWriteTrapTaken() { _statWriteTraps += 1; }
    void noteWorkerSet(std::size_t n) { _statWorkerSet.sample(n); }
    /// @}

    // ------------------------------------------------------------------
    // Monitor / checker access
    // ------------------------------------------------------------------

    DirectoryScheme &directory() { return *_dir; }
    const DirectoryScheme &directory() const { return *_dir; }
    /** Non-null only for the LimitLESS protocol (chip meta-states). */
    LimitlessDir *limitlessDir() { return _ldir; }
    const LimitlessDir *limitlessDir() const { return _ldir; }
    SoftwareDirTable &softwareTable() { return _swTable; }
    const SoftwareDirTable &softwareTable() const { return _swTable; }

    ChipState
    lineState(Addr line) const
    {
        if (line == _mruLineAddr)
            return _mruLine->state;
        auto it = _lines.find(line);
        return it == _lines.end() ? ChipState::hInvalid
                                  : it->second.state;
    }

    bool
    lineDirty(Addr line) const
    {
        auto it = _lines.find(line);
        return it != _lines.end() && it->second.dirty;
    }

    /** The chip-level copy's words (monitor value check). */
    const LineWords *
    lineData(Addr line) const
    {
        auto it = _lines.find(line);
        return it == _lines.end() ? nullptr : &it->second.data;
    }

    /** Union of hardware-pointer and software-spilled local sharers. */
    void chipSharers(Addr line, std::vector<NodeId> &out) const;

    std::size_t workerSetSize(Addr line) const;

    const AddressMap &addressMap() const { return _amap; }

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

    template <typename Fn>
    void
    forEachObservedTransition(Fn &&fn) const
    {
        _observed.forEach(fn);
    }

  private:
    void scheduleService();
    void service();
    void process(PacketPtr &pkt);
    void dispatch(PacketPtr pkt);
    NodeId parentOf(Addr line) const { return _amap.homeOf(line); }

    EventQueue &_eq;
    NodeId _self;
    const AddressMap &_amap;
    ProtocolParams _proto;
    MemParams _params;
    SendFn _send;
    TrapStallFn _trapStall;
    const home::HierPolicy *_policy = nullptr;

    std::unique_ptr<DirectoryScheme> _dir;
    LimitlessDir *_ldir = nullptr; ///< alias into _dir
    SoftwareDirTable _swTable;

    std::unordered_map<Addr, ChipLine> _lines;
    Addr _mruLineAddr = Addr(-1);
    ChipLine *_mruLine = nullptr;
    ObservedTransitions<numChipStates> _observed;

    Log2Histogram *_wsProfile = nullptr;
    Log2Histogram *_trapServiceHist = nullptr;

    std::deque<PacketPtr> _queue;
    bool _serviceScheduled = false;
    Tick _busyUntil = 0;
    Tick _extraDelay = 0;
    std::uint64_t _curTxn = 0;

    StatSet _stats{"chip"};
    Counter &_statRequests;
    Counter &_statReads;
    Counter &_statWrites;
    Counter &_statBusyNacks;
    Counter &_statInvsSent;
    Counter &_statParentReqs;
    Counter &_statParentInvs;
    Counter &_statParentRetries;
    Counter &_statLocalGrants;
    Counter &_statEvictions;
    Counter &_statReadTraps;
    Counter &_statWriteTraps;
    Counter &_statTrapCycles;
    Counter &_statStaleAcks;
    Distribution &_statWorkerSet;
};

} // namespace limitless

#endif // LIMITLESS_HIER_CHIP_HOME_HH
