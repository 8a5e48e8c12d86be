#include "obs/txn_tracer.hh"

#include <algorithm>
#include <fstream>
#include <functional>
#include <ostream>

#include "obs/flight_recorder.hh"
#include "obs/json.hh"
#include "proto/packet.hh"

namespace limitless
{

namespace
{

/** Phase a network leg belongs to, by the opcode it carries. */
const char *
legKind(Opcode op)
{
    switch (op) {
      case Opcode::RREQ:
      case Opcode::WREQ:
      case Opcode::RUNC:
      case Opcode::WUPD:
      case Opcode::REPC:
        return "req_net";
      case Opcode::RDATA:
      case Opcode::WDATA:
      case Opcode::MUPD:
      case Opcode::WACK:
      case Opcode::REPC_ACK:
        return "reply_net";
      case Opcode::INV:
        return "inv_net";
      case Opcode::ACKC:
      case Opcode::UPDATE:
      case Opcode::REPM:
        return "ack_net";
      case Opcode::BUSY:
        return "busy_net";
      default:
        return "net";
    }
}

void
writeReservoir(JsonWriter &w, const QuantileReservoir &r)
{
    w.object().key("p50").exact(r.quantile(0.50));
    w.key("p95").exact(r.quantile(0.95));
    w.key("p99").exact(r.quantile(0.99));
    w.key("mean").exact(r.mean());
    w.field("count", r.count()).field("exact", r.exact()).end();
}

void
writePhases(JsonWriter &w, const PhaseSample &s)
{
    w.object().key("req_net").exact(s.reqNet).key("home").exact(s.home);
    w.key("trap").exact(s.trap).key("inv").exact(s.inv);
    w.key("reply_net").exact(s.replyNet).key("total").exact(s.total);
    w.end();
}

} // namespace

void
PhaseReservoirs::writeJson(JsonWriter &w) const
{
    w.object();
    writeReservoir(w.key("req_net"), reqNet);
    writeReservoir(w.key("home"), home);
    writeReservoir(w.key("trap"), trap);
    writeReservoir(w.key("inv"), inv);
    writeReservoir(w.key("reply_net"), replyNet);
    writeReservoir(w.key("total"), total);
    w.end();
}

// --------------------------------------------------------------------
// Lifecycle
// --------------------------------------------------------------------

void
TxnTracer::enable(std::size_t top_k)
{
    reset();
    _topK = top_k ? top_k : 1;
    _enabled = true;
}

void
TxnTracer::reset()
{
    _enabled = false;
    _nextId = 0;
    _completed = 0;
    _abandoned = 0;
    _open.clear();
    _byKey.clear();
    _slowest.clear();
    _quantiles.reset();
}

TxnRecord *
TxnTracer::byId(std::uint64_t id)
{
    auto it = _open.find(id);
    return it == _open.end() ? nullptr : &it->second;
}

std::uint32_t
TxnTracer::addSpan(TxnRecord &rec, std::uint32_t parent, const char *kind,
                   NodeId node, Tick start, Tick end)
{
    TxnSpan span;
    span.parent = parent;
    span.kind = kind;
    span.node = node;
    span.start = start;
    span.end = end;
    rec.spans.push_back(span);
    return static_cast<std::uint32_t>(rec.spans.size());
}

// --------------------------------------------------------------------
// Requester-side hooks
// --------------------------------------------------------------------

void
TxnTracer::onInject(Tick now, NodeId requester, Addr line, bool write)
{
    if (!_enabled)
        return;
    const std::uint64_t k = key(requester, line);
    auto stale = _byKey.find(k);
    if (stale != _byKey.end()) {
        // Mirrors LatencyTracker::onInject: a re-injection under the
        // same key supersedes the stale record.
        _open.erase(stale->second);
        ++_abandoned;
    }
    const std::uint64_t id = ++_nextId;
    TxnRecord rec;
    rec.id = id;
    rec.requester = requester;
    rec.line = line;
    rec.write = write;
    rec.start = now;
    addSpan(rec, 0, "txn", requester, now, 0);
    _open.emplace(id, std::move(rec));
    _byKey[k] = id;
}

void
TxnTracer::tagRequest(Packet &pkt, NodeId requester)
{
    if (!_enabled || pkt.operands.empty())
        return;
    auto it = _byKey.find(key(requester, pkt.operands[0]));
    if (it == _byKey.end())
        return;
    pkt.txnId = it->second;
}

void
TxnTracer::onBusyBackoff(NodeId requester, Addr line, Tick now, Tick delay,
                         std::uint64_t round)
{
    if (!_enabled)
        return;
    auto it = _byKey.find(key(requester, line));
    if (it == _byKey.end())
        return;
    if (TxnRecord *rec = byId(it->second)) {
        const std::uint32_t id =
            addSpan(*rec, 1, "busy_backoff", requester, now, now + delay);
        rec->spans[id - 1].arg = round;
    }
}

// --------------------------------------------------------------------
// Network hooks
// --------------------------------------------------------------------

void
TxnTracer::onNetSend(Packet &pkt, Tick now)
{
    TxnRecord *rec = byId(pkt.txnId);
    if (!rec) {
        // Transaction already finalized (e.g. a stale ACK): drop the
        // tag so later hooks don't touch a recycled span id.
        pkt.legSpan = 0;
        return;
    }
    const std::uint32_t parent = pkt.causeSpan ? pkt.causeSpan : 1;
    const std::uint32_t id =
        addSpan(*rec, parent, legKind(pkt.opcode), pkt.src, now, 0);
    TxnSpan &span = rec->spans[id - 1];
    span.peer = pkt.dest;
    span.detail = opcodeName(pkt.opcode);
    pkt.legSpan = id;
}

void
TxnTracer::onNetDeliver(Packet &pkt, Tick now)
{
    TxnRecord *rec = byId(pkt.txnId);
    if (!rec || pkt.legSpan == 0 || pkt.legSpan > rec->spans.size())
        return;
    TxnSpan &span = rec->spans[pkt.legSpan - 1];
    if (span.end == 0)
        span.end = now;
    // pkt.legSpan stays set: the home uses the closed leg's end as the
    // start of the service-queue wait.
}

// --------------------------------------------------------------------
// Home-side hooks
// --------------------------------------------------------------------

void
TxnTracer::onHomeService(std::uint64_t txn, std::uint32_t leg_span,
                         NodeId home, Opcode op, Tick svc_start,
                         Tick svc_end)
{
    TxnRecord *rec = byId(txn);
    if (!rec)
        return;
    Tick arrived = 0;
    if (leg_span && leg_span <= rec->spans.size())
        arrived = rec->spans[leg_span - 1].end;
    // Deferred requests get serviced several times; start each round's
    // queue window at the previous round's progress watermark so the
    // waterfall shows abutting, not overlapping, home-side spans.
    const Tick queue_from = std::max(arrived, rec->homeProgress);
    if (queue_from && svc_start > queue_from)
        addSpan(*rec, 1, "queue_home", home, queue_from, svc_start);
    const std::uint32_t id =
        addSpan(*rec, 1, "home_service", home, svc_start, svc_end);
    rec->spans[id - 1].detail = opcodeName(op);
    rec->homeProgress = svc_end;
}

void
TxnTracer::onInvSend(Packet &inv, NodeId home, Tick start)
{
    TxnRecord *rec = byId(inv.txnId);
    if (!rec)
        return;
    const std::uint32_t id =
        addSpan(*rec, 1, "inv_sharer", home, start, 0);
    rec->spans[id - 1].peer = inv.dest;
    inv.causeSpan = id;
}

void
TxnTracer::onInvAck(std::uint64_t txn, std::uint32_t sharer_span, Tick now)
{
    TxnRecord *rec = byId(txn);
    if (!rec || sharer_span == 0 || sharer_span > rec->spans.size())
        return;
    TxnSpan &span = rec->spans[sharer_span - 1];
    if (span.end == 0)
        span.end = now;
}

void
TxnTracer::onTrapCharge(std::uint64_t txn, NodeId home, Tick now,
                        Tick cycles)
{
    TxnRecord *rec = byId(txn);
    if (!rec)
        return;
    const std::uint32_t id =
        addSpan(*rec, 1, "trap_charge", home, now, now + cycles);
    rec->spans[id - 1].arg = cycles;
}

void
TxnTracer::onTrapEnqueue(Packet &pkt, NodeId home, Tick now)
{
    TxnRecord *rec = byId(pkt.txnId);
    if (!rec) {
        pkt.legSpan = 0;
        return;
    }
    pkt.legSpan = addSpan(*rec, 1, "trap_queue", home, now, 0);
}

void
TxnTracer::onTrapEmulate(std::uint64_t txn, std::uint32_t enq_span,
                         NodeId home, Tick now, Tick cost)
{
    TxnRecord *rec = byId(txn);
    if (!rec)
        return;
    if (enq_span && enq_span <= rec->spans.size()) {
        TxnSpan &queue = rec->spans[enq_span - 1];
        if (queue.end == 0)
            queue.end = now;
    }
    const std::uint32_t id =
        addSpan(*rec, 1, "trap_emulate", home, now, now + cost);
    rec->spans[id - 1].arg = cost;
}

// --------------------------------------------------------------------
// Completion
// --------------------------------------------------------------------

void
TxnTracer::onPhaseSample(const PhaseSample &sample)
{
    if (!_enabled)
        return;
    const std::uint64_t k = key(sample.requester, sample.line);
    auto kit = _byKey.find(k);
    if (kit == _byKey.end())
        return;
    auto it = _open.find(kit->second);
    _byKey.erase(kit);
    if (it == _open.end())
        return;
    TxnRecord rec = std::move(it->second);
    _open.erase(it);

    rec.phases = sample;
    rec.end = sample.end;
    finalize(rec);
    computeCritical(rec);
    _quantiles.add(sample);
    ++_completed;
    emitChrome(rec);
    keepIfSlow(std::move(rec));
}

void
TxnTracer::finalize(TxnRecord &rec)
{
    // Close the root and anything still open, then clamp every child
    // into its parent's window. Parents precede children in the vector
    // (spans are appended as causality unfolds), so one forward pass
    // suffices and guarantees the nesting invariant the property test
    // checks: child ⊆ parent ⊆ root.
    rec.spans[0].end = rec.end;
    for (std::size_t i = 1; i < rec.spans.size(); ++i) {
        TxnSpan &span = rec.spans[i];
        if (span.end == 0)
            span.end = rec.end;
        const TxnSpan &parent = rec.spans[span.parent - 1];
        span.start = std::max(span.start, parent.start);
        span.end = std::min(span.end, parent.end);
        if (span.end < span.start)
            span.end = span.start;
    }
}

void
TxnTracer::computeCritical(TxnRecord &rec) const
{
    // Backward greedy walk: within a span's window, time is attributed
    // to the child whose interval covers the cursor with the latest
    // end; gaps no child covers belong to the span itself. Segments
    // therefore tile the root's [start, end] exactly.
    const std::size_t n = rec.spans.size();
    std::vector<std::vector<std::uint32_t>> kids(n + 1);
    for (std::size_t i = 1; i < n; ++i)
        kids[rec.spans[i].parent].push_back(
            static_cast<std::uint32_t>(i + 1));
    for (auto &list : kids)
        std::sort(list.begin(), list.end(),
                  [&rec](std::uint32_t a, std::uint32_t b) {
                      const TxnSpan &sa = rec.spans[a - 1];
                      const TxnSpan &sb = rec.spans[b - 1];
                      if (sa.end != sb.end)
                          return sa.end > sb.end;
                      return a > b;
                  });

    rec.critical.clear();
    const auto emit = [&rec](const char *kind, std::uint32_t span,
                             Tick start, Tick end) {
        if (end > start)
            rec.critical.push_back(TxnCritSeg{kind, span, start, end});
    };

    // Tree depth is bounded (root -> sharer span -> leg), so plain
    // recursion is safe.
    const std::function<void(std::uint32_t, Tick, Tick)> walk =
        [&](std::uint32_t id, Tick win_start, Tick win_end) {
            const TxnSpan &span = rec.spans[id - 1];
            Tick cursor = win_end;
            for (std::uint32_t child_id : kids[id]) {
                if (cursor <= win_start)
                    break;
                const TxnSpan &child = rec.spans[child_id - 1];
                const Tick ce = std::min(child.end, cursor);
                const Tick cs = std::max(child.start, win_start);
                if (ce <= cs)
                    continue;
                emit(span.kind, id, ce, cursor);
                walk(child_id, cs, ce);
                cursor = cs;
            }
            emit(span.kind, id, win_start, cursor);
        };
    walk(1, rec.spans[0].start, rec.spans[0].end);
    std::reverse(rec.critical.begin(), rec.critical.end());
}

void
TxnTracer::keepIfSlow(TxnRecord &&rec)
{
    // Min-heap on retention rank (total desc, id asc): the heap top is
    // the lowest-ranked retained transaction, evicted when a
    // higher-ranked one completes. outranks(a, b) doubles as the heap's
    // less-than: the comp-"largest" element — the one NOT outranking
    // anything — surfaces at the top.
    const auto outranks = [](const TxnRecord &a, const TxnRecord &b) {
        if (a.phases.total != b.phases.total)
            return a.phases.total > b.phases.total;
        return a.id < b.id;
    };
    if (_slowest.size() < _topK) {
        _slowest.push_back(std::move(rec));
        std::push_heap(_slowest.begin(), _slowest.end(), outranks);
        return;
    }
    if (!outranks(rec, _slowest.front()))
        return; // rec ranks below the lowest retained
    std::pop_heap(_slowest.begin(), _slowest.end(), outranks);
    _slowest.back() = std::move(rec);
    std::push_heap(_slowest.begin(), _slowest.end(), outranks);
}

// --------------------------------------------------------------------
// Chrome trace_event emission
// --------------------------------------------------------------------

void
TxnTracer::emitChrome(const TxnRecord &rec) const
{
    // Null unless a trace is open and its line filter (per line, so one
    // check covers every event below) passes this transaction's line.
    JsonWriter *w = FlightRecorder::instance().traceRawEvent(rec.line);
    if (!w)
        return;
    const std::string line = traceLineHex(rec.line);
    for (std::size_t i = 0; i < rec.spans.size(); ++i) {
        const TxnSpan &span = rec.spans[i];
        const NodeId tid = span.node == invalidNode ? 0 : span.node;
        w->object(JsonWriter::compact).field("name", span.kind);
        w->field("cat", "txn").field("ph", "X").field("ts", span.start);
        w->field("dur", span.end - span.start).field("pid", 0);
        w->field("tid", tid).key("args").object();
        w->field("txn", rec.id).field("span", i + 1);
        w->field("parent", span.parent).field("line", line);
        if (span.peer != invalidNode)
            w->field("peer", span.peer);
        if (span.detail)
            w->field("detail", span.detail);
        if (span.arg)
            w->field("arg", span.arg);
        w->end().end();

        // Network legs additionally get a flow arrow from the sending
        // node's slice to the receiving node, so the viewer draws the
        // transaction's causal chain across tid rows.
        if (span.peer == invalidNode || span.parent == 0)
            continue;
        const std::uint64_t flow = rec.id * 4096 + (i + 1);
        w->object(JsonWriter::compact).field("name", "txn_flow");
        w->field("cat", "txn").field("ph", "s").field("id", flow);
        w->field("ts", span.start).field("pid", 0).field("tid", tid).end();
        w->object(JsonWriter::compact).field("name", "txn_flow");
        w->field("cat", "txn").field("ph", "f").field("bp", "e");
        w->field("id", flow).field("ts", span.end).field("pid", 0);
        w->field("tid", span.peer).end();
    }
}

// --------------------------------------------------------------------
// JSON export (schema limitless-txn-v1)
// --------------------------------------------------------------------

std::vector<const TxnRecord *>
TxnTracer::top() const
{
    std::vector<const TxnRecord *> out;
    out.reserve(_slowest.size());
    for (const TxnRecord &rec : _slowest)
        out.push_back(&rec);
    std::sort(out.begin(), out.end(),
              [](const TxnRecord *a, const TxnRecord *b) {
                  if (a->phases.total != b->phases.total)
                      return a->phases.total > b->phases.total;
                  return a->id < b->id;
              });
    return out;
}

void
TxnTracer::writeJson(std::ostream &os) const
{
    JsonWriter w(os);
    w.object(2).field("schema", "limitless-txn-v1").field("version", 1);
    w.field("completed", _completed).field("unfinished", _open.size());
    w.field("abandoned", _abandoned).field("top_k", _topK);
    _quantiles.writeJson(w.key("phase_quantiles"));
    w.key("top").array(4);
    for (const TxnRecord *rec : top()) {
        w.object().field("id", rec->id).field("requester", rec->requester);
        w.field("line", traceLineHex(rec->line)).field("write", rec->write);
        w.field("start", rec->start).field("end", rec->end);
        writePhases(w.br(5).key("phases"), rec->phases);
        w.br(5).key("spans").array();
        for (std::size_t i = 0; i < rec->spans.size(); ++i) {
            const TxnSpan &span = rec->spans[i];
            if (i)
                w.br(16);
            w.object().field("id", i + 1).field("parent", span.parent);
            w.field("kind", span.kind);
            w.field("node", span.node == invalidNode
                                ? -1
                                : static_cast<int>(span.node));
            if (span.peer != invalidNode)
                w.field("peer", span.peer);
            w.field("start", span.start).field("end", span.end);
            if (span.detail)
                w.field("detail", span.detail);
            if (span.arg)
                w.field("arg", span.arg);
            w.end();
        }
        w.end().br(5).key("critical").array();
        for (const TxnCritSeg &seg : rec->critical) {
            w.object().field("kind", seg.kind).field("span", seg.span);
            w.field("start", seg.start).field("end", seg.end).end();
        }
        w.end().end();
    }
    w.end().end();
    os << "\n";
}

bool
TxnTracer::writeJsonFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::out | std::ios::trunc);
    if (!out.is_open())
        return false;
    writeJson(out);
    return out.good();
}

} // namespace limitless
