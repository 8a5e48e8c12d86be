/**
 * @file
 * Memory-side coherence controller: the shared home-node core (service
 * loop, HomeLine map, ack counters, send helpers, statistics) behind
 * the per-scheme policy units in src/mem/home/.
 *
 * One controller per node; it owns the node's slice of globally shared
 * memory (real data words) and the directory entries for lines homed
 * there. Incoming protocol packets are serviced one at a time with a
 * configurable occupancy, which is what makes widely shared lines into
 * hot spots.
 *
 * All protocol behavior lives in the guarded-action transition tables
 * of src/mem/home/{full_map,limited,limitless,chained,private}_home.cc
 * (see src/proto/protocol_table.hh); process() is a single table
 * dispatch. The transition actions drive this class exclusively through
 * its public transition-action API below.
 *
 * LimitLESS support: in stall-approximation mode (the paper's evaluation
 * methodology) pointer overflows are emulated inline and charged Ts
 * cycles to both the controller and the home processor. In
 * full-emulation mode overflowed packets are diverted through the IPI
 * interface to a software trap handler (src/kernel/limitless_handler.hh)
 * which manipulates this controller through the software-access methods
 * at the bottom of the class — the "complete access to coherence-related
 * controller state" of paper Section 4.1.
 */

#ifndef LIMITLESS_MEM_MEMORY_CONTROLLER_HH
#define LIMITLESS_MEM_MEMORY_CONTROLLER_HH

#include <array>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <unordered_map>

#include "cache/mem_op.hh"
#include "directory/chained_dir.hh"
#include "directory/directory.hh"
#include "directory/limitless_dir.hh"
#include "kernel/software_dir.hh"
#include "machine/address_map.hh"
#include "machine/coherence_policy.hh"
#include "mem/home/home_line.hh"
#include "proto/packet.hh"
#include "proto/protocol_params.hh"
#include "proto/states.hh"
#include "proto/transition.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace limitless
{

namespace home
{
struct HomePolicy;
} // namespace home

class Log2Histogram;

/** Controller timing knobs. */
struct MemParams
{
    Tick serviceCycles = 4; ///< occupancy per protocol packet

    /**
     * Requests arriving for a line that is mid-transaction are parked in
     * a small per-line buffer (replayed FIFO when the transaction
     * completes) instead of being BUSY-nacked; only when the buffer is
     * full does the controller nack. Depth 0 recovers the pure
     * nack-and-retry protocol (ablation D4). Without this, heavy read
     * sharing on a limited directory can starve writers indefinitely:
     * readers keep the entry in eviction transactions and every write
     * retry loses the race.
     */
    unsigned deferDepth = 4;
};

/** A line's worth of memory words. */
using LineWords = std::array<std::uint64_t, AddressMap::maxWordsPerLine>;

/** The per-node memory + directory controller. */
class MemoryController
{
  public:
    using SendFn = std::function<void(PacketPtr)>;
    /** Stall the home processor (stall-approximation Ts charge). */
    using TrapStallFn = std::function<void(Tick)>;
    /** Divert a packet to the IPI input queue (full emulation). */
    using DivertFn = std::function<void(PacketPtr)>;

    MemoryController(EventQueue &eq, NodeId self, const AddressMap &amap,
                     const ProtocolParams &proto, const MemParams &params);

    void setSend(SendFn fn) { _send = std::move(fn); }
    void setPolicy(const CoherencePolicy *policy) { _policy = policy; }
    const CoherencePolicy *coherencePolicy() const { return _policy; }
    void setTrapStall(TrapStallFn fn) { _trapStall = std::move(fn); }
    void setDivert(DivertFn fn) { _divert = std::move(fn); }

    /** Protocol packet arriving from the network or the local cache. */
    void enqueue(PacketPtr pkt);

    NodeId nodeId() const { return _self; }
    const ProtocolParams &protocol() const { return _proto; }
    StatSet &stats() { return _stats; }
    bool idle() const { return _queue.empty() && !_serviceScheduled; }

    /** Fraction of requests that took the software path (the model's m). */
    double overflowFraction() const;

    /**
     * Telemetry sinks (null = disabled, the default; the hot path pays
     * one pointer test per request). @p worker_set receives the line's
     * worker-set size at each RREQ/WREQ pre-dispatch — the same hook
     * point the LimitLESS meta-state machine uses, so Trap-Always
     * profiling and telemetry see identical populations. @p trap_service
     * receives the Ts cycles of each stall-approximation trap charge.
     */
    void
    setTelemetrySinks(Log2Histogram *worker_set, Log2Histogram *trap_service)
    {
        _wsProfile = worker_set;
        _trapServiceHist = trap_service;
    }

    /**
     * Size of the line's current worker set: hardware pointers plus any
     * software-extended sharers (chain length for the chained scheme).
     * O(sharers); telemetry-only, never on the un-instrumented hot path.
     */
    std::size_t workerSetSize(Addr line) const;

    // ------------------------------------------------------------------
    // Transition-action API: the per-scheme policy units in
    // src/mem/home/ drive the controller through these.
    // ------------------------------------------------------------------

    /** Current simulation time (the controller's event-queue clock). */
    Tick now() const { return _eq.now(); }

    /**
     * Per-line protocol bookkeeping (created on first touch). Servicing
     * one packet consults the same line several times (state, ack
     * counter, pending requester, words), so a one-entry MRU cache
     * fronts the hash map. Entries are never erased and unordered_map
     * references survive rehashing, so the cached pointer cannot
     * dangle.
     */
    HomeLine &
    lineFor(Addr line)
    {
        if (line == _mruLineAddr)
            return *_mruLine;
        HomeLine &hl = _lines.try_emplace(line).first->second;
        _mruLineAddr = line;
        _mruLine = &hl;
        return hl;
    }

    /** Mutable memory words of a line (zero-filled on first touch). */
    LineWords &
    lineWords(Addr line)
    {
        if (line == _mruWordsAddr)
            return *_mruWords;
        LineWords &lw = _memory.try_emplace(line).first->second;
        _mruWordsAddr = line;
        _mruWords = &lw;
        return lw;
    }

    void sendReadData(NodeId to, Addr line, NodeId old_head = invalidNode);
    void sendWriteData(NodeId to, Addr line);
    void sendInv(NodeId to, Addr line);
    void sendBusy(NodeId to, Addr line);
    /** Launch a packet, honouring any in-flight Ts emulation charge. */
    void dispatch(PacketPtr pkt);

    /** Park a mid-transaction request, or BUSY it if the buffer is full. */
    void deferOrBusy(PacketPtr &pkt, HomeLine &hl);
    /** Replay parked requests after a transaction completes. */
    void replayDeferred(HomeLine &hl);

    /** Charge Ts emulation cycles against the in-flight service, on
     *  behalf of @p requester's transaction on @p line. */
    void chargeTrap(Tick cycles, NodeId requester, Addr line);

    /** Hand a packet to the software trap handler (full emulation). */
    void divertToHandler(PacketPtr pkt);

    /** @name Statistics hooks for transition actions. */
    /// @{
    void noteRead() { _statReads += 1; }
    void noteWrite() { _statWrites += 1; }
    void noteEviction() { _statEvictions += 1; }
    void noteStaleAck() { _statStaleAcks += 1; }
    void noteWriteUpdate() { _statWriteUpdates += 1; }
    void noteMigratoryEviction() { _statMigratoryEvictions += 1; }
    /** Trap counters alone (inline paths charge cycles via chargeTrap). */
    void noteReadTrapTaken() { _statReadTraps += 1; }
    void noteWriteTrapTaken() { _statWriteTraps += 1; }
    /// @}

    // ------------------------------------------------------------------
    // Software / monitor access ("the directories are placed in a special
    // region of memory that may be read and written by the processor").
    // ------------------------------------------------------------------

    DirectoryScheme &directory() { return *_dir; }
    const DirectoryScheme &directory() const { return *_dir; }
    /** Non-null only for the LimitLESS protocol. */
    LimitlessDir *limitlessDir() { return _ldir; }
    ChainedDir *chainedDir() { return _chained.get(); }
    SoftwareDirTable &softwareTable() { return _swTable; }
    const SoftwareDirTable &softwareTable() const { return _swTable; }

    /**
     * Cumulative access records for Trap-Always lines (the Section 6
     * profiling extension): unlike the coherence-tracking softwareTable,
     * entries here survive write-gathers, so the profile reflects every
     * processor that ever touched the line.
     */
    SoftwareDirTable &profileTable() { return _profile; }
    const SoftwareDirTable &profileTable() const { return _profile; }

    MemState
    lineState(Addr line) const
    {
        if (line == _mruLineAddr)
            return _mruLine->state;
        auto it = _lines.find(line);
        return it == _lines.end() ? MemState::readOnly : it->second.state;
    }
    void setLineState(Addr line, MemState s) { lineFor(line).state = s; }

    std::uint32_t
    ackCounter(Addr line) const
    {
        if (line == _mruLineAddr)
            return _mruLine->ackCtr;
        auto it = _lines.find(line);
        return it == _lines.end() ? 0 : it->second.ackCtr;
    }
    void setAckCounter(Addr line, std::uint32_t n)
    {
        lineFor(line).ackCtr = n;
    }

    NodeId
    pendingRequester(Addr line) const
    {
        if (line == _mruLineAddr)
            return _mruLine->pending;
        auto it = _lines.find(line);
        return it == _lines.end() ? invalidNode : it->second.pending;
    }
    void setPendingRequester(Addr line, NodeId n)
    {
        lineFor(line).pending = n;
    }

    /** Current memory contents of a line (zero-filled on first touch). */
    const LineWords &readLine(Addr line) { return lineWords(line); }
    void writeLine(Addr line, const std::vector<std::uint64_t> &words);

    /** Trap handler send path (protocol packets launched via IPI). */
    void sendFromHandler(PacketPtr pkt) { _send(std::move(pkt)); }

    const AddressMap &addressMap() const { return _amap; }

    /** Trap-accounting hooks so overflowFraction() covers both modes. */
    void noteReadTrap(Tick cycles);
    void noteWriteTrap(Tick cycles);
    void noteInvSent() { _statInvsSent += 1; }
    void noteWorkerSet(std::size_t n) { _statWorkerSet.sample(n); }

    /**
     * Process a packet directly, bypassing meta-state checks: used by
     * trap handlers that tap a packet (e.g. the profiler) and then let
     * the hardware path do the actual protocol work.
     */
    void processBypassingMeta(PacketPtr pkt);

    /**
     * Serialize the controller's protocol-relevant state (per-line FSM
     * + scratch fields, deferred packets, directory / software-vector /
     * chain contents, memory words) in a deterministic text form. The
     * model checker fingerprints machine states with this; ticks and
     * statistics are deliberately excluded — see docs/CHECKER.md.
     */
    void checkpoint(std::ostream &os) const;

    /** Iterate touched lines (coherence-monitor support). */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (const auto &[line, st] : _lines)
            fn(line, st.state);
    }

    /** Iterate the (state, opcode) pairs this controller has fired
     *  (coherence-monitor cross-check against the declared table). */
    template <typename Fn>
    void
    forEachObservedTransition(Fn &&fn) const
    {
        _observed.forEach(fn);
    }

  private:
    void scheduleService();
    void service();
    void process(PacketPtr &pkt, bool bypass_meta);

    EventQueue &_eq;
    NodeId _self;
    const AddressMap &_amap;
    ProtocolParams _proto;
    MemParams _params;
    SendFn _send;
    TrapStallFn _trapStall;
    DivertFn _divert;
    const CoherencePolicy *_policy = nullptr;
    const home::HomePolicy *_homePolicy = nullptr;

    std::unique_ptr<DirectoryScheme> _dir;
    LimitlessDir *_ldir = nullptr;          ///< alias into _dir
    std::unique_ptr<ChainedDir> _chained;   ///< chained protocol only
    SoftwareDirTable _swTable;
    SoftwareDirTable _profile;

    std::unordered_map<Addr, HomeLine> _lines;
    std::unordered_map<Addr, LineWords> _memory;
    /** One-entry MRU fronts for the two maps (see lineFor). Addr(-1)
     *  is never a line address, so it is a safe empty sentinel. */
    Addr _mruLineAddr = Addr(-1);
    HomeLine *_mruLine = nullptr;
    Addr _mruWordsAddr = Addr(-1);
    LineWords *_mruWords = nullptr;
    ObservedTransitions<numMemStates> _observed;

    Log2Histogram *_wsProfile = nullptr;       ///< telemetry, may be null
    Log2Histogram *_trapServiceHist = nullptr; ///< telemetry, may be null

    std::deque<PacketPtr> _queue;
    bool _serviceScheduled = false;
    Tick _busyUntil = 0;
    Tick _extraDelay = 0; ///< Ts charge for the in-flight service
    /** Transaction id of the packet being processed (0 when untagged):
     *  home-originated packets and trap/invalidation spans inherit it,
     *  so replies launched by transition actions stay attributed to the
     *  request that caused them. */
    std::uint64_t _curTxn = 0;

    StatSet _stats{"mem"};
    Counter &_statRequests;
    Counter &_statReads;
    Counter &_statWrites;
    Counter &_statBusyNacks;
    Counter &_statInvsSent;
    Counter &_statEvictions;
    Counter &_statReadTraps;
    Counter &_statWriteTraps;
    Counter &_statTrapCycles;
    Counter &_statStaleAcks;
    Counter &_statWriteUpdates;
    Counter &_statMigratoryEvictions;
    Distribution &_statWorkerSet;
};

} // namespace limitless

#endif // LIMITLESS_MEM_MEMORY_CONTROLLER_HH
