/**
 * @file
 * Per-transaction causal tracer: span trees, critical paths, and
 * tail-latency quantiles for remote misses.
 *
 * Where the LatencyTracker (obs/latency_tracker.hh) reduces every
 * remote miss to five phase *means*, this tracer keeps the full causal
 * story of each transaction: a tree of timed spans — request network
 * legs hop by hop, BUSY/backoff rounds, home service queueing and
 * occupancy, LimitLESS trap enqueue/emulation windows, one span per
 * invalidated sharer (with its INV and ACK legs as children), and the
 * reply leg — plus an exact critical path extracted by a backward walk
 * over the tree.
 *
 * A transaction id is assigned at remote-miss injection and threaded
 * through packets (Packet::txnId / causeSpan / legSpan); every
 * instrumentation site is guarded by `pkt->txnId != 0` or `enabled()`,
 * so a disabled tracer costs one predicted branch per site and the
 * simulation output is bit-identical with the tracer off.
 *
 * Completion feeds per-phase bounded reservoirs (src/stats/reservoir.hh)
 * — exact p50/p95/p99 for every ≤64-node figure run — using the *same*
 * folded phase attribution the LatencyTracker accumulates, so quantiles
 * and means are consistent by construction. The K slowest transactions
 * are retained in full and exported as schema `limitless-txn-v1` JSON;
 * when a Chrome trace stream is open, finalized spans are also emitted
 * as trace_event slices with flow arrows across nodes.
 *
 * One tracer instance is hosted by the FlightRecorder singleton, which
 * installs it as the LatencyTracker's sample sink.
 */

#ifndef LIMITLESS_OBS_TXN_TRACER_HH
#define LIMITLESS_OBS_TXN_TRACER_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/latency_tracker.hh"
#include "proto/opcode.hh"
#include "sim/types.hh"
#include "stats/reservoir.hh"

namespace limitless
{

class JsonWriter;
struct Packet;

/** One timed span in a transaction's causal tree. Span ids are 1-based
 *  indices into TxnRecord::spans; a parent always precedes its children
 *  except that all top-level spans share parent 1 (the root). `kind`
 *  and `detail` must point at static-lifetime strings. */
struct TxnSpan
{
    std::uint32_t parent = 0;  ///< 1-based parent id; 0 = the root itself
    const char *kind = "";     ///< "req_net", "home_service", ...
    NodeId node = invalidNode; ///< node the span ran on
    NodeId peer = invalidNode; ///< network legs: the receiving node
    Tick start = 0;
    Tick end = 0;              ///< 0 while the span is open
    std::uint64_t arg = 0;     ///< kind-specific (retry round, Ts, ...)
    const char *detail = nullptr;
};

/** One segment of a transaction's critical path, attributed to the
 *  deepest span covering that time window. Segments tile [start, end]
 *  of the root exactly. */
struct TxnCritSeg
{
    const char *kind = "";
    std::uint32_t span = 0; ///< 1-based id of the attributed span
    Tick start = 0;
    Tick end = 0;
};

/** A completed (or in-flight) transaction's full causal record. */
struct TxnRecord
{
    std::uint64_t id = 0;
    NodeId requester = invalidNode;
    Addr line = 0;
    bool write = false;
    Tick start = 0;
    Tick end = 0;
    std::vector<TxnSpan> spans; ///< spans[0] is the root (kind "txn")
    PhaseSample phases;         ///< folded attribution at completion
    std::vector<TxnCritSeg> critical;

    /** Home-side progress watermark so repeated service rounds of a
     *  deferred request produce abutting queue_home spans (bookkeeping
     *  only, not exported). */
    Tick homeProgress = 0;
};

/** The six per-phase sample reservoirs a run accumulates; copyable so
 *  sweep harnesses can carry them across threads and merge them. */
struct PhaseReservoirs
{
    QuantileReservoir reqNet, home, trap, inv, replyNet, total;

    void
    add(const PhaseSample &s)
    {
        reqNet.add(s.reqNet);
        home.add(s.home);
        trap.add(s.trap);
        inv.add(s.inv);
        replyNet.add(s.replyNet);
        total.add(s.total);
    }

    void
    merge(const PhaseReservoirs &o)
    {
        reqNet.merge(o.reqNet);
        home.merge(o.home);
        trap.merge(o.trap);
        inv.merge(o.inv);
        replyNet.merge(o.replyNet);
        total.merge(o.total);
    }

    void
    reset()
    {
        reqNet.reset();
        home.reset();
        trap.reset();
        inv.reset();
        replyNet.reset();
        total.reset();
    }

    std::uint64_t count() const { return total.count(); }

    /** `{"req_net": {"p50": ..}, ...}` — the stats-JSON
     *  "phase_quantiles" object. */
    void writeJson(JsonWriter &w) const;
};

/** Records causal span trees for in-flight remote transactions. */
class TxnTracer
{
  public:
    /** Start a fresh run capturing the @p top_k slowest transactions. */
    void enable(std::size_t top_k = 16);
    void disable() { _enabled = false; }
    /** Drop all per-run state (records, quantiles, id counter). */
    void reset();
    bool enabled() const { return _enabled; }
    std::size_t topK() const { return _topK; }

    /** @name Requester-side hooks (cache controller) */
    /// @{
    void onInject(Tick now, NodeId requester, Addr line, bool write);
    /** Stamp an outgoing RREQ/WREQ with its transaction id. */
    void tagRequest(Packet &pkt, NodeId requester);
    void onBusyBackoff(NodeId requester, Addr line, Tick now, Tick delay,
                       std::uint64_t round);
    /// @}

    /** @name Network hooks (one leg span per tagged packet hop) */
    /// @{
    void onNetSend(Packet &pkt, Tick now);
    void onNetDeliver(Packet &pkt, Tick now);
    /// @}

    /** @name Home-side hooks (memory controller, trap path) */
    /// @{
    /** One hardware service round for the transaction's own request:
     *  records queue_home (delivery -> service) and home_service
     *  occupancy spans. @p leg_span is the request's network-leg span
     *  captured before dispatch. */
    void onHomeService(std::uint64_t txn, std::uint32_t leg_span,
                       NodeId home, Opcode op, Tick svc_start,
                       Tick svc_end);
    /** Open a per-sharer invalidation span; tags @p inv.causeSpan so
     *  the INV leg and the returning ACK nest under it. */
    void onInvSend(Packet &inv, NodeId home, Tick start);
    /** Acknowledgment serviced at the home: close the sharer span it
     *  belongs to (@p sharer_span is the ack's causeSpan tag). */
    void onInvAck(std::uint64_t txn, std::uint32_t sharer_span, Tick now);
    /** Inline Ts emulation charge (stall-approximation mode). */
    void onTrapCharge(std::uint64_t txn, NodeId home, Tick now,
                      Tick cycles);
    /** Packet diverted to the software handler: open a trap_queue span
     *  (stored in pkt.legSpan) covering the IPI queue wait. */
    void onTrapEnqueue(Packet &pkt, NodeId home, Tick now);
    /** Handler started emulating: close the trap_queue span and record
     *  the [now, now+cost] trap_emulate window. */
    void onTrapEmulate(std::uint64_t txn, std::uint32_t enq_span,
                       NodeId home, Tick now, Tick cost);
    /// @}

    /** Completion sink, fed by LatencyTracker::onComplete with the
     *  folded phase attribution. Finalizes the span tree, extracts the
     *  critical path, feeds the reservoirs, and retains top-K. */
    void onPhaseSample(const PhaseSample &sample);

    /** @name Results */
    /// @{
    std::uint64_t completedCount() const { return _completed; }
    /** Transactions whose key was re-injected before completing. */
    std::uint64_t abandonedCount() const { return _abandoned; }
    std::size_t openCount() const { return _open.size(); }
    const PhaseReservoirs &quantiles() const { return _quantiles; }
    PhaseReservoirs &quantiles() { return _quantiles; }
    /** Retained slowest transactions, total desc (ties: id asc). */
    std::vector<const TxnRecord *> top() const;
    /** Schema limitless-txn-v1 export. */
    void writeJson(std::ostream &os) const;
    bool writeJsonFile(const std::string &path) const;
    /// @}

  private:
    static std::uint64_t
    key(NodeId requester, Addr line)
    {
        return (static_cast<std::uint64_t>(requester) << 48) ^ line;
    }

    TxnRecord *byId(std::uint64_t id);
    std::uint32_t addSpan(TxnRecord &rec, std::uint32_t parent,
                          const char *kind, NodeId node, Tick start,
                          Tick end);
    void finalize(TxnRecord &rec);
    void computeCritical(TxnRecord &rec) const;
    void emitChrome(const TxnRecord &rec) const;
    void keepIfSlow(TxnRecord &&rec);

    bool _enabled = false;
    std::size_t _topK = 16;
    std::uint64_t _nextId = 0;
    std::uint64_t _completed = 0;
    std::uint64_t _abandoned = 0;
    std::unordered_map<std::uint64_t, TxnRecord> _open;  ///< id -> record
    std::unordered_map<std::uint64_t, std::uint64_t> _byKey;
    std::vector<TxnRecord> _slowest; ///< min-heap by (total, id)
    PhaseReservoirs _quantiles;
};

} // namespace limitless

#endif // LIMITLESS_OBS_TXN_TRACER_HH
