/**
 * @file
 * Cache-side coherence controller.
 *
 * Implements the cache half of the DirNNB protocol family (paper Table 1
 * cache states, Table 3 messages): request generation (RREQ/WREQ),
 * response installation (RDATA/WDATA), invalidation service (INV ->
 * ACKC/UPDATE), dirty replacement (REPM), and BUSY-retry with binary
 * exponential backoff.
 *
 * For the chained protocol it additionally maintains the per-line forward
 * pointer, forwards INVs down the chain, and replaces shared lines via an
 * explicit REPC transaction (see DESIGN.md section 7 for the documented
 * simplification versus full SCI rollout).
 */

#ifndef LIMITLESS_CACHE_CACHE_CONTROLLER_HH
#define LIMITLESS_CACHE_CACHE_CONTROLLER_HH

#include <functional>
#include <iosfwd>
#include <unordered_map>

#include "cache/cache_array.hh"
#include "cache/mem_op.hh"
#include "machine/address_map.hh"
#include "machine/coherence_policy.hh"
#include "proto/packet.hh"
#include "proto/protocol_params.hh"
#include "proto/protocol_table.hh"
#include "sim/event_queue.hh"
#include "sim/ring.hh"
#include "sim/rng.hh"
#include "stats/stats.hh"

namespace limitless
{

class CacheController;

/**
 * Dispatch context for one incoming cache-side packet: the controller,
 * the packet, and the lookup result for its line (null when the line is
 * not resident — the Invalid state rows). Install actions repoint cl at
 * the filled line.
 */
struct CacheCtx
{
    CacheController &cc;
    PacketPtr &pkt;
    CacheLine *cl;

    /** Engine hook: apply a transition's static next state. A null cl
     *  (nothing resident, nothing installed) has no state to write. */
    void
    setState(std::uint8_t s)
    {
        if (cl)
            cl->state = static_cast<CacheState>(s);
    }
};

/** Cache controller tuning. */
struct CacheParams
{
    std::uint64_t cacheBytes = 64 * 1024;
    Tick hitLatency = 1;   ///< processor-visible hit time
    Tick retryBase = 12;   ///< BUSY backoff base delay
    unsigned retryCapShift = 5; ///< backoff doubles up to base << cap
};

/** The per-node cache and its protocol engine. */
class CacheController
{
  public:
    /** Invoked when an access completes; argument is the loaded /
     *  pre-modification word value. */
    using Completion = std::function<void(std::uint64_t)>;
    /** Outgoing message path, provided by the node. */
    using SendFn = std::function<void(PacketPtr)>;

    /** What the processor learns at issue time (context-switch cue). */
    enum class IssueClass { hit, miss };

    CacheController(EventQueue &eq, NodeId self, const AddressMap &amap,
                    const CacheParams &params, ProtocolKind protocol,
                    std::uint64_t seed);

    void setSend(SendFn fn) { _send = std::move(fn); }

    /** Optional static coherence-type table (update-mode lines). */
    void setPolicy(const CoherencePolicy *policy) { _policy = policy; }

    /**
     * Issue a memory operation. The completion callback fires when the
     * access is globally performed (sequential consistency: the caller
     * must not issue its next access for the same thread until then).
     */
    IssueClass access(const MemOp &op, Completion done);

    /** Protocol packet arriving from the network / local memory. */
    void handlePacket(PacketPtr pkt);

    NodeId nodeId() const { return _self; }
    ProtocolKind protocol() const { return _protocol; }

    /**
     * The cache-side transition table for @p kind (built + registered on
     * first use; see src/cache/cache_protocol.cc). The controller
     * dispatches every incoming packet through it.
     */
    static const TransitionTable<CacheCtx> &tableFor(ProtocolKind kind);

    /** Iterate the (state, opcode) pairs this controller has fired
     *  (coherence-monitor cross-check against the declared table). */
    template <typename Fn>
    void
    forEachObservedTransition(Fn &&fn) const
    {
        _observed.forEach(fn);
    }

    /** Home node of an address (exposed for the processor's
     *  switch-on-remote-miss policy). */
    NodeId homeOf(Addr a) const { return _amap.homeOf(_amap.lineAddr(a)); }
    CacheArray &array() { return _array; }
    const CacheArray &array() const { return _array; }
    StatSet &stats() { return _stats; }

    bool idle() const { return _txns.empty() && _waiting.empty(); }
    std::size_t outstanding() const { return _txns.size(); }
    /** Accesses queued behind an in-flight transaction on the same line
     *  (telemetry gauge: MSHR-style backlog at the sample instant). */
    std::size_t waitingAccesses() const { return _waiting.size(); }

    /**
     * Serialize the controller's protocol-relevant state (resident
     * lines, outstanding transactions, queued accesses) in a
     * deterministic text form. The model checker fingerprints machine
     * states with this; timing-only fields (retry counts, issue ticks)
     * are deliberately excluded — see docs/CHECKER.md.
     */
    void checkpoint(std::ostream &os) const;

  private:
    /** Outstanding miss / upgrade / replacement transaction on a line. */
    struct Txn
    {
        MemOp op;
        Completion done;
        bool forWrite = false;
        unsigned retries = 0;
        Tick issued = 0;
        bool remote = false;
        /** Chained mode: REPC phase pending before the real request. */
        bool awaitingRepc = false;
        Addr repcLine = 0; ///< line being evicted via REPC
        /** Update-mode write: completes on WACK, no line install. */
        bool updateWrite = false;
        /** Private-only uncached read: completes on RDATA, no install. */
        bool uncachedRead = false;
    };

    struct WaitingAccess
    {
        MemOp op;
        Completion done;
    };

    void startAccess(const MemOp &op, Completion done, bool &was_hit);
    void startRequest(Addr line, Txn &txn);
    void evictForSet(Addr line, Txn *txn_needing_repc);
    void completeTxn(Addr line, CacheLine &cl);
    void finish(Txn txn, std::uint64_t value);
    void applyOp(const MemOp &op, CacheLine &cl, std::uint64_t &out);
    void handleBusy(const Packet &pkt);
    void scheduleRetry(Addr line);
    void drainWaiting();
    void noteInvReceived(const Packet &pkt);
    /** Acknowledge an INV/MUPD; @p cause is the packet being answered
     *  (its tracer tags ride on the ACK), or nullptr. */
    void sendAck(NodeId to, Addr line, NodeId chain_next,
                 const Packet *cause);

    /** @name Transition-table guards and actions (cache_protocol.cc). */
    /// @{
    static bool txnUncached(const CacheCtx &c);
    static void rdataUncached(CacheCtx &c);
    static void rdataInstall(CacheCtx &c);
    static void wdataInstall(CacheCtx &c);
    static void invSpurious(CacheCtx &c);
    static void invCleanAck(CacheCtx &c);
    static void invWriteback(CacheCtx &c);
    static void mupdRefresh(CacheCtx &c);
    static void mupdSpurious(CacheCtx &c);
    static void wackComplete(CacheCtx &c);
    static void busyRetry(CacheCtx &c);
    static void repcResume(CacheCtx &c);
    /// @}

    EventQueue &_eq;
    NodeId _self;
    const AddressMap &_amap;
    CacheParams _params;
    ProtocolKind _protocol;
    const CoherencePolicy *_policy = nullptr;
    CacheArray _array;
    SendFn _send;
    Rng _rng;

    const TransitionTable<CacheCtx> *_table = nullptr;
    std::unordered_map<Addr, Txn> _txns;
    Ring<WaitingAccess> _waiting;
    ObservedTransitions<numCacheStates> _observed;
    bool _drainScheduled = false;

    StatSet _stats{"cache"};
    Counter &_statLoads;
    Counter &_statStores;
    Counter &_statHits;
    Counter &_statMisses;
    Counter &_statUpgrades;
    Counter &_statRepm;
    Counter &_statRepc;
    Counter &_statWupd;
    Counter &_statInvsReceived;
    Counter &_statSpuriousInvs;
    Counter &_statBusyRetries;
    Accumulator &_statRemoteLatency;
    Accumulator &_statLocalMissLatency;
};

} // namespace limitless

#endif // LIMITLESS_CACHE_CACHE_CONTROLLER_HH
