#include "mem/memory_controller.hh"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <set>

#include "directory/full_map_dir.hh"
#include "directory/limited_dir.hh"
#include "mem/home/home_policy.hh"
#include "obs/flight_recorder.hh"
#include "obs/host_profiler.hh"
#include "obs/telemetry.hh"
#include "sim/log.hh"

namespace limitless
{

MemoryController::MemoryController(EventQueue &eq, NodeId self,
                                   const AddressMap &amap,
                                   const ProtocolParams &proto,
                                   const MemParams &params)
    : _eq(eq), _self(self), _amap(amap), _proto(proto), _params(params),
      _swTable(amap.numNodes()), _profile(amap.numNodes()),
      _statRequests(_stats.counter("requests", "protocol packets serviced")),
      _statReads(_stats.counter("rreq", "read requests")),
      _statWrites(_stats.counter("wreq", "write requests")),
      _statBusyNacks(_stats.counter("busy_nacks", "BUSY responses sent")),
      _statInvsSent(_stats.counter("invs_sent", "invalidations sent")),
      _statEvictions(
          _stats.counter("evictions", "limited-dir pointer evictions")),
      _statReadTraps(_stats.counter(
          "read_traps", "LimitLESS pointer-overflow (read) traps")),
      _statWriteTraps(_stats.counter(
          "write_traps", "LimitLESS software write-gather traps")),
      _statTrapCycles(
          _stats.counter("trap_cycles", "cycles spent in Ts emulation")),
      _statStaleAcks(
          _stats.counter("stale_acks", "acknowledgments ignored")),
      _statWriteUpdates(_stats.counter(
          "write_updates", "update-mode writes serviced (Section 6)")),
      _statMigratoryEvictions(_stats.counter(
          "migratory_evictions",
          "software FIFO pointer evictions on migratory lines")),
      _statWorkerSet(_stats.distribution(
          "worker_set", "sharers invalidated per write", amap.numNodes()))
{
    switch (_proto.kind) {
      case ProtocolKind::fullMap:
        _dir = std::make_unique<FullMapDir>(_amap.numNodes());
        break;
      case ProtocolKind::limited:
        _dir = std::make_unique<LimitedDir>(_proto.pointers);
        break;
      case ProtocolKind::limitless: {
        auto ldir = std::make_unique<LimitlessDir>(_self, _proto.pointers,
                                                   _proto.localBit);
        _ldir = ldir.get();
        _dir = std::move(ldir);
        break;
      }
      case ProtocolKind::chained:
        // The chained protocol keeps only a head pointer at the home; the
        // DirectoryScheme slot holds a full map purely as a debugging aid
        // (the chained FSM never consults it).
        _dir = std::make_unique<FullMapDir>(_amap.numNodes());
        _chained = std::make_unique<ChainedDir>();
        break;
      case ProtocolKind::privateOnly:
        // Only local (home-node) copies are ever tracked.
        _dir = std::make_unique<FullMapDir>(_amap.numNodes());
        break;
    }
    _homePolicy = &home::homePolicyFor(_proto.kind);
}

void
MemoryController::writeLine(Addr line,
                            const std::vector<std::uint64_t> &words)
{
    LineWords &mem = _memory.try_emplace(line).first->second;
    const unsigned n =
        std::min<unsigned>(words.size(), _amap.wordsPerLine());
    for (unsigned i = 0; i < n; ++i)
        mem[i] = words[i];
}

void
MemoryController::noteReadTrap(Tick cycles)
{
    _statReadTraps += 1;
    _statTrapCycles += cycles;
}

void
MemoryController::noteWriteTrap(Tick cycles)
{
    _statWriteTraps += 1;
    _statTrapCycles += cycles;
}

std::size_t
MemoryController::workerSetSize(Addr line) const
{
    if (_chained)
        return _chained->chainLength(line);
    std::vector<NodeId> all;
    _dir->sharers(line, all);
    _swTable.sharers(line, all);
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    return all.size();
}

double
MemoryController::overflowFraction() const
{
    const double reqs = static_cast<double>(_statReads.value() +
                                            _statWrites.value());
    if (reqs == 0)
        return 0.0;
    return (_statReadTraps.value() + _statWriteTraps.value()) / reqs;
}

namespace
{

void
checkpointPacket(std::ostream &os, const Packet &pkt)
{
    os << opcodeName(pkt.opcode) << pkt.src << ">" << pkt.dest << "(";
    for (std::size_t i = 0; i < pkt.operands.size(); ++i)
        os << (i ? "," : "") << pkt.operands[i];
    os << "|";
    for (std::size_t i = 0; i < pkt.data.size(); ++i)
        os << (i ? "," : "") << pkt.data[i];
    os << ")";
}

} // namespace

void
MemoryController::checkpoint(std::ostream &os) const
{
    // Deterministic line order: union of protocol-touched and
    // memory-touched lines, sorted.
    std::set<Addr> lines;
    for (const auto &[line, hl] : _lines)
        lines.insert(line);
    for (const auto &[line, words] : _memory)
        lines.insert(line);

    os << "mem" << _self << "{";
    for (Addr line : lines) {
        os << "L" << std::hex << line << std::dec << ":";
        auto lit = _lines.find(line);
        if (lit != _lines.end()) {
            const HomeLine &hl = lit->second;
            os << memStateName(hl.state) << ",a" << hl.ackCtr << ",p";
            if (hl.pending != invalidNode)
                os << hl.pending;
            os << (hl.dataSeen ? ",d" : "");
            if (hl.evictVictim != invalidNode)
                os << ",e" << hl.evictVictim;
            if (hl.updWrite || hl.updApply)
                os << ",u" << hl.updWrite << hl.updSilent << hl.updApply
                   << "." << hl.updWord << "." << int(hl.updKind) << "."
                   << hl.updValue << "." << hl.updOld;
            if (hl.pendingUncached)
                os << ",n";
            if (hl.walkTarget != invalidNode)
                os << ",w" << hl.walkTarget;
            if (hl.repcRequester != invalidNode)
                os << ",r" << hl.repcRequester;
            for (const PacketPtr &pkt : hl.deferred) {
                os << ",q";
                checkpointPacket(os, *pkt);
            }
        }
        // Directory view of the line (pointer sets are unordered
        // internally; sort for stability).
        std::vector<NodeId> sharers;
        _dir->sharers(line, sharers);
        std::sort(sharers.begin(), sharers.end());
        os << "/dir";
        for (NodeId n : sharers)
            os << "." << n;
        if (_ldir)
            os << "/meta" << metaStateName(_ldir->meta(line));
        if (_swTable.has(line)) {
            sharers.clear();
            _swTable.sharers(line, sharers);
            std::sort(sharers.begin(), sharers.end());
            os << "/sw";
            for (NodeId n : sharers)
                os << "." << n;
        }
        if (_chained && _chained->head(line) != invalidNode)
            os << "/ch" << _chained->head(line) << "x"
               << _chained->chainLength(line);
        auto mit = _memory.find(line);
        if (mit != _memory.end()) {
            os << "/m";
            for (unsigned w = 0; w < _amap.wordsPerLine(); ++w)
                os << (w ? "," : "") << mit->second[w];
        }
        os << ";";
    }
    // Packets accepted but not yet serviced.
    for (const PacketPtr &pkt : _queue) {
        os << "Q";
        checkpointPacket(os, *pkt);
        os << ";";
    }
    os << "}";
}

// --------------------------------------------------------------------
// Service loop
// --------------------------------------------------------------------

void
MemoryController::enqueue(PacketPtr pkt)
{
    assert(pkt && pkt->isProtocol());
    assert(_amap.homeOf(pkt->addr()) == _self &&
           "packet routed to the wrong home node");
    _queue.push_back(std::move(pkt));
    scheduleService();
}

void
MemoryController::scheduleService()
{
    if (_serviceScheduled || _queue.empty())
        return;
    _serviceScheduled = true;
    const Tick when = std::max(_eq.now(), _busyUntil);
    _eq.schedule(when, [this]() {
        _serviceScheduled = false;
        service();
    }, EventPriority::ctrl);
}

void
MemoryController::service()
{
    PROF_SCOPE("mem.service");
    assert(!_queue.empty());
    PacketPtr pkt = std::move(_queue.front());
    _queue.pop_front();
    _extraDelay = 0;
    _statRequests += 1;
    if (Log::enabled("mem"))
        Log::debug(_eq.now(), "mem", "home %u [%s] sv %s", _self,
                   memStateName(lineState(pkt->addr())),
                   describePacket(*pkt).c_str());

    const Addr line = pkt->addr();
    const NodeId src = pkt->src;
    const Opcode op = pkt->opcode;
    const MemState pre = lineState(line);
    // Tracer tags, captured now: process() may move the packet away
    // (deferral, trap divert) before the service window is known.
    const std::uint64_t txn_id = pkt->txnId;
    const std::uint32_t txn_leg = pkt->legSpan;
    const std::uint32_t txn_cause = pkt->causeSpan;
    // Re-stamped on deferred replay / BUSY retry, so earlier service
    // rounds land in the req_net phase.
    if (op == Opcode::RREQ || op == Opcode::WREQ)
        FlightRecorder::instance().latency().onHomeArrival(_eq.now(), src,
                                                           line);
    if (txn_id && (op == Opcode::ACKC || op == Opcode::UPDATE))
        FlightRecorder::instance().txn().onInvAck(txn_id, txn_cause,
                                                  _eq.now());
    {
        TraceEvent ev;
        ev.ts = _eq.now();
        ev.name = "service";
        ev.cat = EventCat::mem;
        ev.node = _self;
        ev.line = line;
        ev.op = op;
        ev.hasOp = true;
        ev.src = src;
        ev.detail = memStateName(pre);
        FR_RECORD(ev);
    }

    process(pkt, false);
    const MemState post = lineState(line);
    if (post != pre) {
        TraceEvent ev;
        ev.ts = _eq.now();
        ev.name = "fsm_state";
        ev.cat = EventCat::mem;
        ev.node = _self;
        ev.line = line;
        ev.detail = memStateName(post);
        FR_RECORD(ev);
    }
    _busyUntil = _eq.now() + _params.serviceCycles + _extraDelay;
    if (txn_id && (op == Opcode::RREQ || op == Opcode::WREQ))
        FlightRecorder::instance().txn().onHomeService(
            txn_id, txn_leg, _self, op, _eq.now(), _busyUntil);
    scheduleService();
}

void
MemoryController::processBypassingMeta(PacketPtr pkt)
{
    assert(pkt);
    process(pkt, true);
}

// --------------------------------------------------------------------
// Send helpers (honour the Ts delay of an in-flight software emulation)
// --------------------------------------------------------------------

void
MemoryController::sendReadData(NodeId to, Addr line, NodeId old_head)
{
    // The reply leaves once any in-flight Ts charge has elapsed (see
    // dispatch); stamp the launch at that time so trap cycles are not
    // double-counted into the reply_net phase.
    FlightRecorder::instance().latency().onReplySent(
        _eq.now() + _extraDelay, to, line);
    const LineWords &mem = readLine(line);
    auto pkt = makeDataPacket(_self, to, Opcode::RDATA, line,
                              mem.data(), _amap.wordsPerLine());
    if (_chained)
        pkt->operands.push_back(old_head);
    dispatch(std::move(pkt));
}

void
MemoryController::sendWriteData(NodeId to, Addr line)
{
    FlightRecorder::instance().latency().onReplySent(
        _eq.now() + _extraDelay, to, line);
    const LineWords &mem = readLine(line);
    dispatch(makeDataPacket(_self, to, Opcode::WDATA, line,
                            mem.data(), _amap.wordsPerLine()));
}

void
MemoryController::sendInv(NodeId to, Addr line)
{
    _statInvsSent += 1;
    // Every fan-out assigns hl.pending before the first sendInv, so it
    // names the requester whose transaction this invalidation serves.
    const NodeId pending = lineFor(line).pending;
    if (pending != invalidNode)
        FlightRecorder::instance().latency().onInvStart(
            _eq.now() + _extraDelay, pending, line);
    {
        TraceEvent ev;
        ev.ts = _eq.now();
        ev.name = "inv_tx";
        ev.cat = EventCat::mem;
        ev.node = _self;
        ev.line = line;
        ev.dest = to;
        FR_RECORD(ev);
    }
    auto pkt = makeProtocolPacket(_self, to, Opcode::INV, line);
    pkt->operands.push_back(_self);
    if (_curTxn) {
        pkt->txnId = _curTxn;
        FlightRecorder::instance().txn().onInvSend(
            *pkt, _self, _eq.now() + _extraDelay);
    }
    dispatch(std::move(pkt));
}

void
MemoryController::sendBusy(NodeId to, Addr line)
{
    _statBusyNacks += 1;
    dispatch(makeProtocolPacket(_self, to, Opcode::BUSY, line));
}

void
MemoryController::dispatch(PacketPtr pkt)
{
    // Home-originated packets (replies, BUSY nacks) inherit the serviced
    // request's transaction id; invalidations were tagged in sendInv.
    if (pkt->txnId == 0 && _curTxn != 0)
        pkt->txnId = _curTxn;
    if (_extraDelay == 0) {
        _send(std::move(pkt));
        return;
    }
    Packet *raw = pkt.release();
    _eq.schedule(_eq.now() + _extraDelay, [this, raw]() {
        _send(PacketPtr(raw));
    }, EventPriority::ctrl);
}

void
MemoryController::chargeTrap(Tick cycles, NodeId requester, Addr line)
{
    _extraDelay = cycles;
    _statTrapCycles += cycles;
    if (_trapServiceHist)
        _trapServiceHist->sample(cycles);
    FlightRecorder::instance().latency().onTrap(requester, line, cycles);
    if (_curTxn)
        FlightRecorder::instance().txn().onTrapCharge(_curTxn, _self,
                                                      _eq.now(), cycles);
    {
        TraceEvent ev;
        ev.ts = _eq.now();
        ev.name = "trap_charge";
        ev.cat = EventCat::trap;
        ev.node = _self;
        ev.line = line;
        ev.src = requester;
        ev.arg = cycles;
        ev.hasArg = true;
        FR_RECORD(ev);
    }
    if (_trapStall)
        _trapStall(cycles);
}

void
MemoryController::deferOrBusy(PacketPtr &pkt, HomeLine &hl)
{
    assert(opcodeIsHomeRequest(pkt->opcode));
    if (hl.deferred.size() < _params.deferDepth) {
        hl.deferred.push_back(std::move(pkt));
        return;
    }
    sendBusy(pkt->src, pkt->addr());
}

void
MemoryController::replayDeferred(HomeLine &hl)
{
    // Re-inject parked requests at the head of the service queue,
    // preserving their arrival order (they predate anything queued).
    for (auto it = hl.deferred.rbegin(); it != hl.deferred.rend(); ++it)
        _queue.push_front(std::move(*it));
    hl.deferred.clear();
    scheduleService();
}

// --------------------------------------------------------------------
// Protocol dispatch: one guarded-action table lookup (src/mem/home/)
// --------------------------------------------------------------------

void
MemoryController::divertToHandler(PacketPtr pkt)
{
    if (pkt->txnId)
        FlightRecorder::instance().txn().onTrapEnqueue(*pkt, _self,
                                                       _eq.now());
    _divert(std::move(pkt));
}

void
MemoryController::process(PacketPtr &pkt, bool bypass_meta)
{
    const Addr line = pkt->addr();
    const NodeId src = pkt->src;
    const Opcode op = pkt->opcode;
    _curTxn = pkt->txnId;
    HomeLine &hl = lineFor(line);
    home::HomeCtx ctx{*this, pkt, hl, bypass_meta};

    // Worker-set profiling taps requests at the same pre-dispatch point
    // the LimitLESS meta-state machine does (paper §6's Trap-Always
    // profiler); bypass_meta re-entries are the same request again.
    if (_wsProfile && !bypass_meta &&
        (op == Opcode::RREQ || op == Opcode::WREQ))
        _wsProfile->sample(workerSetSize(line));

    if (_homePolicy->preDispatch && _homePolicy->preDispatch(ctx))
        return;

    const auto pre = static_cast<std::uint8_t>(hl.state);
    const auto &tr = _homePolicy->table->fire(ctx, pre, op);
    _observed.note(pre, op);
    {
        TraceEvent ev;
        ev.ts = _eq.now();
        ev.name = "transition";
        ev.cat = EventCat::mem;
        ev.node = _self;
        ev.line = line;
        ev.op = op;
        ev.hasOp = true;
        ev.src = src;
        ev.detail = tr.label;
        ev.arg = tr.id;
        ev.hasArg = true;
        FR_RECORD(ev);
    }
}

} // namespace limitless
