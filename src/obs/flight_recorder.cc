#include "obs/flight_recorder.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <iostream>

#include "sim/event_queue.hh"
#include "sim/log.hh"

namespace limitless
{

namespace
{

constexpr std::size_t defaultRingCapacity = 8192;

} // namespace

const char *
eventCatName(EventCat cat)
{
    switch (cat) {
      case EventCat::net: return "net";
      case EventCat::cache: return "cache";
      case EventCat::dir: return "dir";
      case EventCat::mem: return "mem";
      case EventCat::trap: return "trap";
    }
    return "?";
}

std::string
traceLineHex(Addr line)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(line));
    return buf;
}

FlightRecorder &
FlightRecorder::instance()
{
    // Thread-local: one machine runs per thread, so each parallel sweep
    // worker records into (and resets) its own recorder without locks.
    thread_local FlightRecorder recorder;
    return recorder;
}

FlightRecorder::FlightRecorder()
{
    _ring.resize(defaultRingCapacity);
    _ringMask = _ring.size() - 1;
    // Let panic() surface the causal history of whatever blew up. The
    // hook slot is global and idempotent: every thread's recorder installs
    // the same function, which dumps the panicking thread's own ring.
    setPanicHook([] {
        const FlightRecorder &fr = FlightRecorder::instance();
        fr.dumpPostmortem(std::cerr, fr.panicFocus(), 64,
                          fr.panicReason() ? fr.panicReason() : "panic");
    });
    // Completed remote misses flow into the transaction tracer with the
    // exact folded phase attribution the mean breakdown accumulates,
    // keeping quantiles and means consistent by construction. The sink
    // is a no-op while the tracer is disabled.
    _latency.setSampleSink(
        [this](const PhaseSample &s) { _txn.onPhaseSample(s); });
}

Tick
FlightRecorder::now() const
{
    return _clock ? _clock->now() : 0;
}

bool
FlightRecorder::traceOpen(const std::string &path)
{
    traceClose();
    _trace.open(path, std::ios::out | std::ios::trunc);
    if (!_trace.is_open())
        return false;
    _traceJson.emplace(_trace).array(0);
    return true;
}

void
FlightRecorder::traceClose()
{
    if (!_traceJson)
        return;
    _traceJson->end();
    _traceJson.reset();
    _trace << "\n";
    _trace.close();
}

void
FlightRecorder::setLineFilter(std::unordered_set<Addr> lines)
{
    _lineFilter = std::move(lines);
}

JsonWriter *
FlightRecorder::traceRawEvent(Addr line)
{
    if (!_traceJson ||
        (!_lineFilter.empty() && !_lineFilter.count(line)))
        return nullptr;
    return &*_traceJson;
}

void
FlightRecorder::setRingCapacity(std::size_t events)
{
    // Rounded up to a power of two so the ring write is mask, not modulo.
    _ring.assign(std::bit_ceil(std::max<std::size_t>(events, 1)),
                 TraceEvent{});
    _ringMask = _ring.size() - 1;
    _ringHead = 0;
    _ringCount = 0;
}

void
FlightRecorder::record(const TraceEvent &ev)
{
    _ring[_ringHead] = ev;
    _ringHead = (_ringHead + 1) & _ringMask;
    if (_ringCount < _ring.size())
        ++_ringCount;

    if (_traceJson &&
        (_lineFilter.empty() || _lineFilter.count(ev.line)))
        writeTraceEvent(ev);
}

void
FlightRecorder::writeTraceEvent(const TraceEvent &ev)
{
    // Chrome trace_event instant event, one per line. "ts" is in
    // microseconds in the viewer; we map one cycle to one microsecond.
    JsonWriter &w = *_traceJson;
    w.object(JsonWriter::compact).field("name", ev.name);
    w.field("cat", eventCatName(ev.cat)).field("ph", "i").field("s", "t");
    w.field("ts", ev.ts).field("pid", 0);
    w.field("tid", ev.node == invalidNode ? 0 : ev.node);
    w.key("args").object();
    if (ev.line)
        w.field("line", traceLineHex(ev.line));
    if (ev.hasOp)
        w.field("op", opcodeName(ev.op));
    if (ev.src != invalidNode)
        w.field("src", ev.src);
    if (ev.dest != invalidNode)
        w.field("dest", ev.dest);
    if (ev.detail)
        w.field("detail", ev.detail);
    if (ev.hasArg)
        w.field("arg", ev.arg);
    w.end().end();
}

void
FlightRecorder::dumpPostmortem(std::ostream &os, Addr line,
                               std::size_t maxEvents,
                               const char *reason) const
{
    // Collect the matching tail of the ring, oldest first.
    std::vector<const TraceEvent *> match;
    const std::size_t cap = _ring.size();
    const std::size_t start = (_ringHead + cap - _ringCount) % cap;
    for (std::size_t i = 0; i < _ringCount; ++i) {
        const TraceEvent &ev = _ring[(start + i) % cap];
        if (line == 0 || ev.line == line)
            match.push_back(&ev);
    }
    const std::size_t skip =
        match.size() > maxEvents ? match.size() - maxEvents : 0;

    os << "==== postmortem @" << now();
    if (reason)
        os << " (" << reason << ")";
    os << ": last " << (match.size() - skip) << " protocol events";
    if (line)
        os << " for line 0x" << std::hex << line << std::dec;
    os << " ====\n";
    if (match.empty())
        os << "  (no recorded events)\n";
    for (std::size_t i = skip; i < match.size(); ++i) {
        const TraceEvent &ev = *match[i];
        os << "  @" << ev.ts << " node " << ev.node << " ["
           << eventCatName(ev.cat) << "] " << ev.name;
        if (ev.line)
            os << " line=0x" << std::hex << ev.line << std::dec;
        if (ev.hasOp)
            os << " op=" << opcodeName(ev.op);
        if (ev.src != invalidNode)
            os << " src=" << ev.src;
        if (ev.dest != invalidNode)
            os << " dest=" << ev.dest;
        if (ev.detail)
            os << ' ' << ev.detail;
        if (ev.hasArg)
            os << " arg=" << ev.arg;
        os << '\n';
    }
    os << "==== end postmortem ====" << std::endl;
}

void
FlightRecorder::resetRun()
{
    _ringHead = 0;
    _ringCount = 0;
    _lineFilter.clear();
    _latency.reset();
    _txn.reset();
    _clock = nullptr;
    _panicFocus = 0;
    _panicReason = nullptr;
}

} // namespace limitless
