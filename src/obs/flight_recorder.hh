/**
 * @file
 * Protocol flight recorder: the process-wide observability hub.
 *
 * Three facilities share one singleton (mirroring the process-global
 * Log configuration in sim/log.hh):
 *
 *  - a structured trace sink that streams protocol events as Chrome
 *    trace_event JSON (open the file at ui.perfetto.dev or
 *    chrome://tracing). Disabled by default; when no trace file is
 *    open the per-event cost is one predicted-not-taken branch.
 *
 *  - a bounded postmortem ring holding the last N protocol events.
 *    Always on (a handful of stores per event), it is dumped by
 *    panic() and by CoherenceMonitor violations so invariant failures
 *    come with their causal history for the offending line.
 *
 *  - the remote-transaction LatencyTracker (obs/latency_tracker.hh),
 *    hosted here so instrumentation points reach it without plumbing.
 *
 * Instrumentation sites call FR_RECORD(...) with a filled TraceEvent;
 * compiling with -DLIMITLESS_NO_TRACE=1 removes every site entirely,
 * which is the "compile-away" bound for the <2% overhead budget.
 */

#ifndef LIMITLESS_OBS_FLIGHT_RECORDER_HH
#define LIMITLESS_OBS_FLIGHT_RECORDER_HH

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "obs/json.hh"
#include "obs/latency_tracker.hh"
#include "obs/txn_tracer.hh"
#include "proto/opcode.hh"
#include "sim/types.hh"

namespace limitless
{

class EventQueue;

/** Component category of a trace event (maps to the "cat" field). */
enum class EventCat : std::uint8_t
{
    net,   ///< network injection / delivery
    cache, ///< cache controller miss lifecycle
    dir,   ///< directory state transitions and pointer events
    mem,   ///< memory controller protocol service
    trap,  ///< software trap dispatch / completion
};

const char *eventCatName(EventCat cat);

/** A line address as the trace exports spell it: "0x", lowercase hex. */
std::string traceLineHex(Addr line);

/**
 * One protocol event, compact enough to live in the postmortem ring.
 * `name` and `detail` must point at static-lifetime strings.
 */
struct TraceEvent
{
    Tick ts = 0;
    const char *name = "";
    EventCat cat = EventCat::net;
    NodeId node = invalidNode; ///< node the event happened on ("tid")
    Addr line = 0;             ///< memory line involved (0 = none)
    Opcode op = Opcode::RREQ;
    bool hasOp = false;
    NodeId src = invalidNode;
    NodeId dest = invalidNode;
    const char *detail = nullptr; ///< optional static-string annotation
    std::uint64_t arg = 0;        ///< optional numeric annotation
    bool hasArg = false;
};

/** Process-wide event sink, postmortem ring, and latency tracker. */
class FlightRecorder
{
  public:
    static FlightRecorder &instance();

    /**
     * Register the active machine's event queue so components without a
     * clock of their own (the directories) can stamp events. Machine
     * sets this in its constructor and clears it in its destructor.
     */
    void setClock(const EventQueue *eq) { _clock = eq; }
    const EventQueue *clock() const { return _clock; }
    Tick now() const;

    /** @name Trace sink */
    /// @{
    /** Start streaming trace_event JSON to @p path; closes any open
     *  trace first. Returns false (untraced) when the file can't be
     *  opened. */
    bool traceOpen(const std::string &path);
    /** Finish the JSON array and close the file. Safe when no trace is
     *  open. */
    void traceClose();
    /** Restrict the *streamed* trace to these lines (the postmortem
     *  ring keeps recording everything). Empty set = no filter. */
    void setLineFilter(std::unordered_set<Addr> lines);
    /** Trace-sink access for composite events (the transaction
     *  tracer's span slices and flow arrows, the CLI's host slices).
     *  Returns nullptr unless a trace is open and @p line passes the
     *  stream filter; when non-null, the caller writes whole event
     *  objects into the open events array. */
    JsonWriter *traceRawEvent(Addr line);
    /// @}

    /** Record one event into the ring and, if open, the trace file. */
    void record(const TraceEvent &ev);

    /** @name Postmortem ring */
    /// @{
    void setRingCapacity(std::size_t events);
    /** Dump the buffered history (filtered to @p line unless 0) in
     *  chronological order, headed by the dump-trigger tick and
     *  @p reason so the dump correlates with telemetry windows. Invoked
     *  by panic() via the hook installed in the constructor, and by
     *  CoherenceMonitor before it panics. */
    void dumpPostmortem(std::ostream &os, Addr line = 0,
                        std::size_t maxEvents = 64,
                        const char *reason = nullptr) const;
    /** Focus the panic-hook postmortem on one line (0 = whole ring).
     *  Invariant checkers set this while examining a line so a panic
     *  dumps only that line's causal history. */
    void setPanicFocus(Addr line) { _panicFocus = line; }
    Addr panicFocus() const { return _panicFocus; }
    /** Label the panic-hook postmortem's trigger (static string only —
     *  read inside the panic path; e.g. "coherence violation"). */
    void setPanicReason(const char *reason) { _panicReason = reason; }
    const char *panicReason() const { return _panicReason; }
    /// @}

    LatencyTracker &latency() { return _latency; }

    /** The per-transaction causal tracer (obs/txn_tracer.hh), hosted
     *  here — like the latency tracker — so instrumentation points
     *  reach it without plumbing. The constructor installs it as the
     *  latency tracker's completion sink. */
    TxnTracer &txn() { return _txn; }

    /** Forget per-run state (ring contents, latency tracker, clock).
     *  Harnesses call this between experiments. */
    void resetRun();

  private:
    FlightRecorder();

    void writeTraceEvent(const TraceEvent &ev);

    const EventQueue *_clock = nullptr;

    std::ofstream _trace;
    /** Engaged while a trace is open, holding the events array open. */
    std::optional<JsonWriter> _traceJson;
    std::unordered_set<Addr> _lineFilter;

    std::vector<TraceEvent> _ring;
    std::size_t _ringHead = 0;  ///< next slot to write
    std::size_t _ringMask = 0;  ///< capacity - 1 (capacity is a power of 2)
    std::size_t _ringCount = 0; ///< valid events in the ring
    Addr _panicFocus = 0;
    const char *_panicReason = nullptr;

    LatencyTracker _latency;
    TxnTracer _txn;
};

} // namespace limitless

#if defined(LIMITLESS_NO_TRACE)
#define FR_RECORD(ev) ((void)(ev))
#else
/** Record a protocol event; compiles away under -DLIMITLESS_NO_TRACE. */
#define FR_RECORD(ev) ::limitless::FlightRecorder::instance().record(ev)
#endif

#endif // LIMITLESS_OBS_FLIGHT_RECORDER_HH
