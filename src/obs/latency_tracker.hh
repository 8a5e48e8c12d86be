/**
 * @file
 * Remote-transaction latency tracker: decomposes the measured remote
 * access time T into the components of the paper's model T = Th + m*Ts.
 *
 * Every plain remote RREQ/WREQ miss is stamped at five points of its
 * life: injection at the requesting cache, arrival at the home memory
 * controller, software-trap emulation (the Ts charge), invalidation
 * fan-out, and reply receipt. On completion the end-to-end latency is
 * attributed to five phases that sum exactly to the total:
 *
 *   req_net    injection -> (last) arrival at the home controller,
 *              including service queueing and BUSY-retry round trips
 *   trap       cycles charged to software emulation (m*Ts component)
 *   inv        invalidation fan-out window (first INV -> last ACK)
 *   home       residual home-side occupancy
 *   reply_net  reply launch -> arrival back at the requester
 *
 * One tracker instance is owned by the FlightRecorder singleton;
 * harnesses reset() it per experiment and snapshot() it afterwards.
 */

#ifndef LIMITLESS_OBS_LATENCY_TRACKER_HH
#define LIMITLESS_OBS_LATENCY_TRACKER_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace limitless
{

class EventQueue;
class JsonWriter;

/** Mean per-phase latency over the completed remote transactions. */
struct PhaseBreakdown
{
    std::uint64_t completed = 0; ///< transactions measured
    double reqNet = 0.0;   ///< request network + queueing + retries
    double home = 0.0;     ///< residual home controller occupancy
    double trap = 0.0;     ///< software emulation charge (m*Ts)
    double inv = 0.0;      ///< invalidation fan-out window
    double replyNet = 0.0; ///< reply network
    double total = 0.0;    ///< end-to-end (== sum of the five phases)

    /** Two-level (--hier) sub-components: `home` folds chipHome +
     *  globalHome and `inv` folds interChipInv, so the five-phase sum
     *  invariant is unchanged; these break the hierarchical shares out.
     *  All zero in flat mode. */
    double chipHome = 0.0;     ///< per-chip home controller residual
    double globalHome = 0.0;   ///< inter-chip (global) home occupancy
    double interChipInv = 0.0; ///< one-INV-per-chip fan-out window

    double sum() const { return reqNet + home + trap + inv + replyNet; }

    /** {"count":N,"req_net":..,"home":..,"trap":..,"inv":..,
     *  "reply_net":..,"total":..}, compact and at full precision so
     *  consumers can check that the five phases sum to "total". With
     *  @p hier (two-level machines only, keeping the flat document
     *  byte-stable) "chip_home", "global_home" and "inter_chip_inv"
     *  follow (docs/OBSERVABILITY.md §2). */
    void writeJson(JsonWriter &w, bool hier = false) const;
};

/** One completed transaction's phase decomposition, as attributed by
 *  LatencyTracker::onComplete. The five phases sum exactly to total
 *  (after the deficit fold), so any consumer — quantile reservoirs, the
 *  transaction tracer's critical paths — is consistent with the means
 *  in PhaseBreakdown by construction. */
struct PhaseSample
{
    NodeId requester = invalidNode;
    Addr line = 0;
    bool write = false;
    Tick inject = 0; ///< injection tick (sample covers [inject, end])
    Tick end = 0;    ///< completion tick
    double reqNet = 0.0;
    double home = 0.0;
    double trap = 0.0;
    double inv = 0.0;
    double replyNet = 0.0;
    double total = 0.0;
};

/** Stamps in-flight remote misses and accumulates per-phase sums. */
class LatencyTracker
{
  public:
    /** Drop all in-flight stamps, accumulated sums and replay stats. */
    void reset();

    /** Requesting cache issued a remote RREQ/WREQ miss. */
    void onInject(Tick now, NodeId requester, Addr line, bool write);

    /** Home controller started servicing the request (re-stamped on
     *  BUSY-retry / deferral replay; earlier rounds land in req_net). */
    void onHomeArrival(Tick now, NodeId requester, Addr line);

    /** @name Two-level (--hier) hooks, called by the chip home only.
     *
     * The global home knows hierarchical requests by the chip home's
     * node id, not the original requester's, so onParentForward
     * registers an alias (chip node, line) -> (requester, line); while
     * it is live, the global home's ordinary stamps above resolve
     * through it into the parent-side fields of the requester's record.
     * The chip home drops the alias (onParentConsumed) before granting
     * locally, so its own reply stamp lands in the flat field even when
     * the requester happens to be the chip-home node itself. Flat runs
     * never register an alias and the hooks cost nothing. */
    /// @{
    /** Chip home started servicing a local request. */
    void onChipArrival(Tick now, NodeId requester, Addr line);
    /** Chip home forwarded the miss to the global home on behalf of
     *  @p requester (re-stamped on BUSY-retry toward the parent). */
    void onParentForward(Tick now, NodeId requester, Addr line,
                         NodeId chip_node);
    /** Chip home consumed the global home's reply; closes the alias. */
    void onParentConsumed(Tick now, NodeId chip_node, Addr line);
    /// @}

    /** Software-trap cycles charged while servicing this request. */
    void onTrap(NodeId requester, Addr line, Tick cycles);

    /** Home launched the invalidation fan-out for this request. */
    void onInvStart(Tick now, NodeId requester, Addr line);

    /** Last acknowledgment arrived; fan-out complete. */
    void onInvEnd(Tick now, NodeId requester, Addr line);

    /** Home launched the data reply toward the requester. */
    void onReplySent(Tick now, NodeId requester, Addr line);

    /** Requester's cache completed the access. */
    void onComplete(Tick now, NodeId requester, Addr line);

    PhaseBreakdown snapshot() const;

    /** One recorded hook invocation from a deferring tracker (parallel
     *  runs). Workers append stamps instead of mutating tracker state;
     *  as windows retire, replayThrough() applies them to the main
     *  tracker in (tick, partition, append-order) order. The result is
     *  bit-identical to the serial run: per-record stamps are keyed by
     *  (requester, line) and any two stamps of the same record are at
     *  least one network hop (>= 2 ticks) apart when they originate on
     *  different partitions, so that order reproduces the serial
     *  interleaving exactly for every record; the cross-record sums are
     *  integer-valued doubles and accumulate in the same order.
     *
     *  Replaying as windows retire keeps that order: a stamp is dated
     *  at or after the window that made it (only the trap-delayed reply
     *  and invalidation stamps, dated now + Ts, lie ahead of it), so no
     *  window after t adds a stamp dated at or before t. Each
     *  replayThrough(t) after window t therefore applies exactly the
     *  next prefix of the whole run's sorted stream. */
    struct DeferredStamp
    {
        enum class Kind : std::uint8_t
        {
            inject,
            homeArrival,
            chipArrival,
            parentForward,
            parentConsumed,
            trap,
            invStart,
            invEnd,
            replySent,
            complete,
        };
        Tick now = 0; ///< stamp tick (clock at call time)
        Addr line = 0;
        /** trap: cycles charged; parentForward: the chip node; inject:
         *  1 for a write. Zero for every other kind. */
        std::uint64_t arg = 0;
        NodeId node = invalidNode; ///< requester (or chip node)
        Kind kind = Kind::inject;
    };

    /** Switch the tracker into record-only mode: every hook appends a
     *  stamp to @p buf and returns without touching tracker state.
     *  @p clock supplies the tick for onTrap, the one hook without a
     *  `now` parameter; pass the calling partition's queue. Pass
     *  (nullptr, nullptr) to return to direct mode. */
    void deferTo(std::vector<DeferredStamp> *buf, const EventQueue *clock)
    {
        _deferBuf = buf;
        _deferClock = clock;
    }

    /** Apply every stamp in @p bufs (one buffer per partition, each in
     *  append order) dated at or before @p through, in (tick,
     *  partition, append-order) order; later stamps stay buffered in
     *  append order. Applies in direct mode even while this tracker
     *  defers, so the coordinator can flush its own partition's buffer
     *  between windows with the workers parked. */
    void replayThrough(Tick through,
                       std::vector<std::vector<DeferredStamp>> &bufs);

    /** What replayThrough has done since reset(). All three follow from
     *  the simulated run alone (flushes fall on a fixed window stride),
     *  so they are the same on every host. */
    struct ReplayStats
    {
        std::uint64_t flushes = 0; ///< replayThrough calls
        /** Stamps a flush left buffered (dated after it), summed over
         *  flushes: trap-delayed stamps are the only ones that can be. */
        std::uint64_t held = 0;
        std::uint64_t peakBuffered = 0; ///< most stamps seen by one flush
    };
    const ReplayStats &replayStats() const { return _replayStats; }

    /** Per-sample observer, invoked at the end of every onComplete with
     *  the folded phase attribution. Survives reset(); pass nullptr to
     *  detach. Used by the transaction tracer to finalize span trees and
     *  feed quantile reservoirs with the exact same numbers the mean
     *  breakdown accumulates. */
    void setSampleSink(std::function<void(const PhaseSample &)> sink)
    {
        _sink = std::move(sink);
    }

    /** Transactions injected but never completed. A quiescent machine
     *  must report zero here: a non-zero count at end of run means a
     *  remote miss was silently dropped (the pre-fix behaviour was to
     *  discard these stamps without a trace). */
    std::uint64_t inFlight() const { return _open.size(); }
    std::uint64_t completed() const { return _completed; }

  private:
    /** Every hook's one path: append @p s while deferring, else
     *  apply() it at once. */
    void note(const DeferredStamp &s);
    /** Apply one stamp to the tracker state, whether it comes live from
     *  a hook or from a deferred buffer (replayThrough). */
    void apply(const DeferredStamp &s);
    /** The complete stamp: attribute the record's phases and retire
     *  it. */
    void complete(Tick now, NodeId requester, Addr line);

    struct Open
    {
        Tick inject = 0;
        Tick homeArrival = 0;
        Tick invStart = 0;
        Tick invEnd = 0;
        Tick replySent = 0;
        Tick trapCycles = 0;
        bool write = false;
        /** Two-level stamps (all zero for flat transactions). The
         *  p-prefixed fields are the global home's stamps, routed here
         *  through the alias registered by onParentForward. */
        Tick chipArrival = 0;
        Tick parentForward = 0;
        Tick pArrival = 0;
        Tick pInvStart = 0;
        Tick pInvEnd = 0;
        Tick pReply = 0;
        Tick pTrapCycles = 0;
        Tick pReplyNet = 0; ///< accumulated parent->chip reply legs
    };

    static std::uint64_t
    key(NodeId requester, Addr line)
    {
        return (static_cast<std::uint64_t>(requester) << 48) ^ line;
    }

    Open *find(NodeId requester, Addr line);
    /** The record a parent-side stamp belongs to: the live alias for
     *  (node, line) if one exists, else the direct record. Sets
     *  @p parent_side when the alias resolved. */
    Open *resolve(NodeId node, Addr line, bool &parent_side);

    std::unordered_map<std::uint64_t, Open> _open;
    /** (chip node, line) key -> open-record key (see onParentForward). */
    std::unordered_map<std::uint64_t, std::uint64_t> _aliases;
    std::function<void(const PhaseSample &)> _sink;
    std::vector<DeferredStamp> *_deferBuf = nullptr;
    const EventQueue *_deferClock = nullptr;
    ReplayStats _replayStats;
    /** A due stamp: its tick, partition buffer and place in it. */
    struct Due
    {
        Tick now;
        std::uint32_t part;
        std::uint32_t index;
    };
    /** replayThrough's sort buffer, kept across flushes so a flush
     *  allocates nothing once it has seen its largest stride. */
    std::vector<Due> _due;

    std::uint64_t _completed = 0;
    double _sumReqNet = 0.0;
    double _sumHome = 0.0;
    double _sumTrap = 0.0;
    double _sumInv = 0.0;
    double _sumReplyNet = 0.0;
    double _sumTotal = 0.0;
    double _sumChipHome = 0.0;
    double _sumGlobalHome = 0.0;
    double _sumInterChipInv = 0.0;
};

} // namespace limitless

#endif // LIMITLESS_OBS_LATENCY_TRACKER_HH
