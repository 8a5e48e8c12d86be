/**
 * @file
 * The home-directory core both directory levels run on.
 *
 * The paper's home node is one mechanism: a directory controller that
 * services one protocol packet at a time with a fixed occupancy, spills
 * overflowing pointers to software and charges Ts cycles for doing so.
 * The global home (MemoryController) and, in two-level (--hier) mode,
 * the chip home (ChipHomeController) are that mechanism at two levels,
 * so everything they share lives here once: the service loop, the
 * Ts-delayed send path, defer-or-BUSY and replay, the invalidation send,
 * the trap charge, the per-level directory with its software spill
 * table, the shared counters, the telemetry sinks and the checkpoint
 * pieces.
 *
 * A level adds its per-line record, its transition table and the
 * actions only it performs. It tells the core how to run one packet
 * through its table (process), a line's table state and pending
 * requester (stateOf, pendingOf), which lines it homes (homes), and the
 * fixed names its records carry (HomeLevel).
 */

#ifndef LIMITLESS_MEM_HOME_CORE_HH
#define LIMITLESS_MEM_HOME_CORE_HH

#include <array>
#include <functional>
#include <iosfwd>
#include <memory>
#include <unordered_map>
#include <vector>

#include "directory/directory.hh"
#include "directory/limitless_dir.hh"
#include "kernel/software_dir.hh"
#include "machine/address_map.hh"
#include "proto/packet.hh"
#include "proto/protocol_params.hh"
#include "proto/transition.hh"
#include "sim/event_queue.hh"
#include "sim/ring.hh"
#include "stats/stats.hh"

namespace limitless
{

class LatencyTracker;
class Log2Histogram;

/** Controller timing knobs (both levels). */
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

/**
 * The part of a level's per-line record the core manages: requests
 * parked while one of the line's transactions is in flight (see
 * MemParams). A vector, not a deque: it allocates on the first park,
 * while a libstdc++ deque allocates 576 B when constructed, in every
 * line record.
 */
struct DeferredRequests
{
    std::vector<PacketPtr> deferred;
};

/**
 * Per-line records keyed by line address, created on first touch.
 * Servicing one packet consults the same line several times, so a
 * one-entry MRU cache fronts the hash map. Entries are never erased and
 * unordered_map references survive rehashing, so the cached pointer
 * cannot dangle; Addr(-1) is never a line address, so it is a safe
 * empty sentinel.
 */
template <typename T>
class LineMap
{
  public:
    T &
    operator[](Addr line)
    {
        if (line == _mruAddr)
            return *_mru;
        T &rec = _map.try_emplace(line).first->second;
        _mruAddr = line;
        _mru = &rec;
        return rec;
    }

    /** The line's record, or nullptr if the line was never touched. */
    const T *
    find(Addr line) const
    {
        if (line == _mruAddr)
            return _mru;
        auto it = _map.find(line);
        return it == _map.end() ? nullptr : &it->second;
    }

    auto begin() const { return _map.begin(); }
    auto end() const { return _map.end(); }

  private:
    std::unordered_map<Addr, T> _map;
    Addr _mruAddr = Addr(-1);
    T *_mru = nullptr;
};

/** The fixed names one level's records carry. */
struct HomeLevel
{
    const char *name; ///< stat set, log tag and checkpoint tag
    const char *role; ///< log-line prefix
    const char *profScope; ///< host-profiler scope of the service loop
    /** @name Trace event names. */
    /// @{
    const char *serviceEvent;
    const char *fsmStateEvent;
    const char *transitionEvent;
    const char *invEvent;
    const char *trapEvent;
    /// @}
    /** The level's table state names. */
    const char *(*stateName)(std::uint8_t);
    /** Latency stamp: a request starts service at this level. */
    void (LatencyTracker::*arrival)(Tick, NodeId, Addr);
};

/** One home directory controller; see the file comment. */
class HomeCore
{
  public:
    using SendFn = std::function<void(PacketPtr)>;
    /** Stall the home processor (stall-approximation Ts charge). */
    using TrapStallFn = std::function<void(Tick)>;

    /** States a level's table may declare (the observed-pair bitset). */
    static constexpr std::size_t maxStates = 16;

    // Scheduled service and send events hold `this`.
    HomeCore(const HomeCore &) = delete;
    HomeCore &operator=(const HomeCore &) = delete;

    void setSend(SendFn fn) { _send = std::move(fn); }
    void setTrapStall(TrapStallFn fn) { _trapStall = std::move(fn); }

    /**
     * Telemetry sinks (null = disabled, the default; the hot path pays
     * one pointer test per request). @p worker_set receives the line's
     * worker-set size when a RREQ/WREQ starts service — the point the
     * LimitLESS meta-state machine checks, so Trap-Always profiling and
     * telemetry see identical populations. @p trap_service receives the
     * Ts cycles of each stall-approximation trap charge.
     */
    void
    setTelemetrySinks(Log2Histogram *worker_set, Log2Histogram *trap_service)
    {
        _wsProfile = worker_set;
        _trapServiceHist = trap_service;
    }

    /** Protocol packet arriving from the network or a local cache. */
    void enqueue(PacketPtr pkt);

    NodeId nodeId() const { return _self; }
    const ProtocolParams &protocol() const { return _proto; }
    const AddressMap &addressMap() const { return _amap; }
    StatSet &stats() { return _stats; }
    std::size_t queueDepth() const { return _queue.size(); }
    /** Current simulation time (the controller's event-queue clock). */
    Tick now() const { return _eq.now(); }

    /** Fraction of requests that took the software path (the model's m). */
    double overflowFraction() const;

    /** Sorted union of hardware-pointer and software-spilled sharers. */
    void sharers(Addr line, std::vector<NodeId> &out) const;

    /**
     * The LimitLESS pointer-overflow software (paper §4.4), for both
     * emulation modes and both levels: empty the hardware pointers into
     * the line's software vector (appending them to @p spilled), then
     * admit @p reader — as a hardware pointer under Trap-On-Write, so
     * hardware absorbs further reads, or as a vector bit under
     * Trap-Always. Returns the meta state the line takes; the caller
     * writes it when its trap completes.
     */
    MetaState spillOverflow(Addr line, NodeId reader,
                            std::vector<NodeId> &spilled);

    /**
     * Size of the line's current worker set (the sharer union; the
     * chained global home counts its chain). O(sharers); telemetry-only,
     * never on the un-instrumented hot path.
     */
    virtual std::size_t workerSetSize(Addr line) const;

    // ------------------------------------------------------------------
    // Transition-action API shared by both levels' tables.
    // ------------------------------------------------------------------

    void sendInv(NodeId to, Addr line);
    void sendBusy(NodeId to, Addr line);
    /** Launch a packet, honouring any in-flight Ts emulation charge. */
    void dispatch(PacketPtr pkt);

    /** Park a mid-transaction request, or BUSY it if the buffer is full. */
    void deferOrBusy(PacketPtr &pkt, DeferredRequests &line);
    /** Replay parked requests after a transaction completes. */
    void replayDeferred(DeferredRequests &line);

    /** Charge Ts emulation cycles against the in-flight service, on
     *  behalf of @p requester's transaction on @p line. */
    void chargeTrap(Tick cycles, NodeId requester, Addr line);

    /** @name Statistics hooks for transition actions. */
    /// @{
    void noteRead() { _statReads += 1; }
    void noteWrite() { _statWrites += 1; }
    void noteEviction() { _statEvictions += 1; }
    void noteStaleAck() { _statStaleAcks += 1; }
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
    const LimitlessDir *limitlessDir() const { return _ldir; }
    SoftwareDirTable &softwareTable() { return _swTable; }
    const SoftwareDirTable &softwareTable() const { return _swTable; }

    /** Iterate the (state, opcode) pairs this controller has fired
     *  (coherence-monitor cross-check against the declared table). */
    template <typename Fn>
    void
    forEachObservedTransition(Fn &&fn) const
    {
        _observed.forEach(fn);
    }

  protected:
    HomeCore(const HomeLevel &level, EventQueue &eq, NodeId self,
             const AddressMap &amap, const ProtocolParams &proto,
             const MemParams &params);
    virtual ~HomeCore() = default;

    /** Run one packet through the level's table (the packet may be
     *  moved away: deferral, trap divert). */
    virtual void process(PacketPtr &pkt) = 0;
    /** The line's table state index. */
    virtual std::uint8_t stateOf(Addr line) const = 0;
    /** The requester whose transaction on @p line is in flight. */
    virtual NodeId pendingOf(Addr line) const = 0;
    /** Does this controller home @p line (routing sanity check)? */
    virtual bool homes(Addr line) const = 0;

    /** Record a fired row: the observed pair and the trace event. */
    void noteTransition(Addr line, NodeId src, std::uint8_t state, Opcode op,
                        const char *label, std::uint16_t id);

    /** When a packet dispatched now leaves: after any Ts charge. */
    Tick launchTime() const { return _eq.now() + _extraDelay; }

    /** A data reply carrying @p words, its launch stamped for the
     *  latency phases (trap cycles do not count as reply_net). */
    PacketPtr dataReply(NodeId to, Opcode op, Addr line,
                        const LineWords &words);

    /** @name Checkpoint pieces (checker fingerprint; ticks and
     *  statistics are deliberately excluded — see docs/CHECKER.md). */
    /// @{
    /** ",q<packet>" per parked request. */
    static void checkpointDeferred(std::ostream &os,
                                   const DeferredRequests &line);
    /** "/dir" pointers, "/meta" state and "/sw" spill, sorted. */
    void checkpointDirectory(std::ostream &os, Addr line) const;
    /** "Q<packet>;" per packet accepted but not yet serviced. */
    void checkpointQueue(std::ostream &os) const;
    /// @}

    EventQueue &_eq;
    NodeId _self;
    const AddressMap &_amap;
    ProtocolParams _proto;
    SendFn _send;
    TrapStallFn _trapStall;

    std::unique_ptr<DirectoryScheme> _dir;
    LimitlessDir *_ldir = nullptr; ///< alias into _dir
    SoftwareDirTable _swTable;

    /** Transaction id of the packet being processed (0 when untagged):
     *  home-originated packets and trap/invalidation spans inherit it,
     *  so replies launched by transition actions stay attributed to the
     *  request that caused them. */
    std::uint64_t _curTxn = 0;

    StatSet _stats;
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

  private:
    void scheduleService();
    void service();

    const HomeLevel &_level;
    MemParams _params;
    ObservedTransitions<maxStates> _observed;

    Log2Histogram *_wsProfile = nullptr;       ///< telemetry, may be null
    Log2Histogram *_trapServiceHist = nullptr; ///< telemetry, may be null

    Ring<PacketPtr> _queue;
    bool _serviceScheduled = false;
    Tick _busyUntil = 0;
    Tick _extraDelay = 0; ///< Ts charge for the in-flight service
};

} // namespace limitless

#endif // LIMITLESS_MEM_HOME_CORE_HH
