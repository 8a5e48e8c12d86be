#include "mem/home_core.hh"

#include <algorithm>
#include <cassert>
#include <ostream>

#include "directory/full_map_dir.hh"
#include "directory/limited_dir.hh"
#include "obs/flight_recorder.hh"
#include "obs/host_profiler.hh"
#include "obs/telemetry.hh"
#include "sim/log.hh"

namespace limitless
{

HomeCore::HomeCore(const HomeLevel &level, EventQueue &eq, NodeId self,
                   const AddressMap &amap, const ProtocolParams &proto,
                   const MemParams &params)
    : _eq(eq), _self(self), _amap(amap), _proto(proto),
      _swTable(amap.numNodes()), _stats(level.name),
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
      _level(level), _params(params)
{
    switch (_proto.kind) {
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
      case ProtocolKind::fullMap:
      case ProtocolKind::chained:
      case ProtocolKind::privateOnly:
        // The chained global home keeps its lists in a ChainedDir and
        // chip-level chaining is not modelled (docs/HIERARCHY.md), so
        // chained keeps a full map, as does private-only, which tracks
        // only local (home-node) copies.
        _dir = std::make_unique<FullMapDir>(_amap.numNodes());
        break;
    }
}

double
HomeCore::overflowFraction() const
{
    const double reqs = static_cast<double>(_statReads.value() +
                                            _statWrites.value());
    if (reqs == 0)
        return 0.0;
    return (_statReadTraps.value() + _statWriteTraps.value()) / reqs;
}

void
HomeCore::sharers(Addr line, std::vector<NodeId> &out) const
{
    _dir->sharers(line, out);
    _swTable.sharers(line, out);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
}

MetaState
HomeCore::spillOverflow(Addr line, NodeId reader,
                        std::vector<NodeId> &spilled)
{
    assert(_ldir && "pointer spill on a non-LimitLESS home");
    _ldir->spillPointers(line, spilled);
    _swTable.addSharers(line, spilled);
    if (_proto.trapOnWrite) {
        const DirAdd r = _ldir->tryAdd(line, reader);
        assert(r != DirAdd::overflow);
        (void)r;
        return MetaState::trapOnWrite;
    }
    _swTable.addSharer(line, reader);
    return MetaState::trapAlways;
}

std::size_t
HomeCore::workerSetSize(Addr line) const
{
    std::vector<NodeId> all;
    sharers(line, all);
    return all.size();
}

// --------------------------------------------------------------------
// Service loop
// --------------------------------------------------------------------

void
HomeCore::enqueue(PacketPtr pkt)
{
    assert(pkt && pkt->isProtocol());
    assert(homes(pkt->addr()) && "packet routed to the wrong home");
    _queue.push_back(std::move(pkt));
    scheduleService();
}

void
HomeCore::scheduleService()
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
HomeCore::service()
{
    PROF_SCOPE(_level.profScope);
    assert(!_queue.empty());
    PacketPtr pkt = std::move(_queue.front());
    _queue.pop_front();
    _extraDelay = 0;
    _statRequests += 1;

    const Addr line = pkt->addr();
    const NodeId src = pkt->src;
    const Opcode op = pkt->opcode;
    const std::uint8_t pre = stateOf(line);
    if (Log::enabled(_level.name))
        Log::debug(_eq.now(), _level.name, "%s %u [%s] sv %s", _level.role,
                   _self, _level.stateName(pre),
                   describePacket(*pkt).c_str());
    // Tracer tags, captured now: process() may move the packet away
    // (deferral, trap divert) before the service window is known.
    const std::uint64_t txn_id = pkt->txnId;
    const std::uint32_t txn_leg = pkt->legSpan;
    const std::uint32_t txn_cause = pkt->causeSpan;
    const bool request = op == Opcode::RREQ || op == Opcode::WREQ;
    FlightRecorder &fr = FlightRecorder::instance();
    // Re-stamped on deferred replay / BUSY retry, so earlier service
    // rounds land in the req_net phase.
    if (request)
        (fr.latency().*_level.arrival)(_eq.now(), src, line);
    if (txn_id && (op == Opcode::ACKC || op == Opcode::UPDATE))
        fr.txn().onInvAck(txn_id, txn_cause, _eq.now());
    {
        TraceEvent ev;
        ev.ts = _eq.now();
        ev.name = _level.serviceEvent;
        ev.cat = EventCat::mem;
        ev.node = _self;
        ev.line = line;
        ev.op = op;
        ev.hasOp = true;
        ev.src = src;
        ev.detail = _level.stateName(pre);
        FR_RECORD(ev);
    }
    // Worker-set profiling taps requests where the LimitLESS meta-state
    // machine does (paper §6's Trap-Always profiler); trap-handler
    // re-entries bypass this loop, being the same request again.
    if (_wsProfile && request)
        _wsProfile->sample(workerSetSize(line));

    _curTxn = txn_id;
    process(pkt);
    const std::uint8_t post = stateOf(line);
    if (post != pre) {
        TraceEvent ev;
        ev.ts = _eq.now();
        ev.name = _level.fsmStateEvent;
        ev.cat = EventCat::mem;
        ev.node = _self;
        ev.line = line;
        ev.detail = _level.stateName(post);
        FR_RECORD(ev);
    }
    _busyUntil = _eq.now() + _params.serviceCycles + _extraDelay;
    if (txn_id && request)
        fr.txn().onHomeService(txn_id, txn_leg, _self, op, _eq.now(),
                               _busyUntil);
    scheduleService();
}

void
HomeCore::noteTransition(Addr line, NodeId src, std::uint8_t state,
                         Opcode op, const char *label, std::uint16_t id)
{
    _observed.note(state, op);
    TraceEvent ev;
    ev.ts = _eq.now();
    ev.name = _level.transitionEvent;
    ev.cat = EventCat::mem;
    ev.node = _self;
    ev.line = line;
    ev.op = op;
    ev.hasOp = true;
    ev.src = src;
    ev.detail = label;
    ev.arg = id;
    ev.hasArg = true;
    FR_RECORD(ev);
}

// --------------------------------------------------------------------
// Send helpers (honour the Ts delay of an in-flight software emulation)
// --------------------------------------------------------------------

PacketPtr
HomeCore::dataReply(NodeId to, Opcode op, Addr line, const LineWords &words)
{
    // The reply leaves once any in-flight Ts charge has elapsed (see
    // dispatch); stamp the launch at that time so trap cycles are not
    // double-counted into the reply_net phase.
    FlightRecorder::instance().latency().onReplySent(launchTime(), to, line);
    return makeDataPacket(_self, to, op, line, words.data(),
                          _amap.wordsPerLine());
}

void
HomeCore::sendInv(NodeId to, Addr line)
{
    _statInvsSent += 1;
    // Every fan-out assigns the pending requester before the first
    // invalidation, so it names the transaction this one serves.
    const NodeId pending = pendingOf(line);
    if (pending != invalidNode)
        FlightRecorder::instance().latency().onInvStart(launchTime(),
                                                        pending, line);
    {
        TraceEvent ev;
        ev.ts = _eq.now();
        ev.name = _level.invEvent;
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
        FlightRecorder::instance().txn().onInvSend(*pkt, _self,
                                                   launchTime());
    }
    dispatch(std::move(pkt));
}

void
HomeCore::sendBusy(NodeId to, Addr line)
{
    _statBusyNacks += 1;
    dispatch(makeProtocolPacket(_self, to, Opcode::BUSY, line));
}

void
HomeCore::dispatch(PacketPtr pkt)
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
HomeCore::chargeTrap(Tick cycles, NodeId requester, Addr line)
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
        ev.name = _level.trapEvent;
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
HomeCore::deferOrBusy(PacketPtr &pkt, DeferredRequests &line)
{
    assert(opcodeIsHomeRequest(pkt->opcode));
    if (line.deferred.size() < _params.deferDepth) {
        line.deferred.push_back(std::move(pkt));
        return;
    }
    sendBusy(pkt->src, pkt->addr());
}

void
HomeCore::replayDeferred(DeferredRequests &line)
{
    // Re-inject parked requests at the head of the service queue,
    // preserving their arrival order (they predate anything queued).
    for (auto it = line.deferred.rbegin(); it != line.deferred.rend(); ++it)
        _queue.push_front(std::move(*it));
    line.deferred.clear();
    scheduleService();
}

// --------------------------------------------------------------------
// Checkpoint pieces
// --------------------------------------------------------------------

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
HomeCore::checkpointDeferred(std::ostream &os, const DeferredRequests &line)
{
    for (const PacketPtr &pkt : line.deferred) {
        os << ",q";
        checkpointPacket(os, *pkt);
    }
}

void
HomeCore::checkpointDirectory(std::ostream &os, Addr line) const
{
    // Pointer sets are unordered internally; sort for stability.
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
}

void
HomeCore::checkpointQueue(std::ostream &os) const
{
    for (const PacketPtr &pkt : _queue) {
        os << "Q";
        checkpointPacket(os, *pkt);
        os << ";";
    }
}

} // namespace limitless
