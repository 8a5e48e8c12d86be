#include "hier/chip_home.hh"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <set>

#include "directory/full_map_dir.hh"
#include "directory/limited_dir.hh"
#include "mem/home/hier_home.hh"
#include "obs/flight_recorder.hh"
#include "obs/telemetry.hh"
#include "sim/log.hh"

namespace limitless
{

namespace
{

/** Parent BUSY backoff, mirroring the cache side's retry policy but
 *  deterministic (no jitter draw — the chip home serializes per line,
 *  so two chip homes never need decorrelating against each other the
 *  way many caches do). */
constexpr Tick chipRetryBase = 12;
constexpr unsigned chipRetryCapShift = 5;

} // namespace

ChipHomeController::ChipHomeController(EventQueue &eq, NodeId self,
                                       const AddressMap &amap,
                                       const ProtocolParams &proto,
                                       const MemParams &params)
    : _eq(eq), _self(self), _amap(amap), _proto(proto), _params(params),
      _swTable(amap.numNodes()),
      _statRequests(_stats.counter("requests", "protocol packets serviced")),
      _statReads(_stats.counter("rreq", "local read requests")),
      _statWrites(_stats.counter("wreq", "local write requests")),
      _statBusyNacks(_stats.counter("busy_nacks", "BUSY responses sent")),
      _statInvsSent(
          _stats.counter("invs_sent", "local invalidations sent")),
      _statParentReqs(_stats.counter(
          "parent_reqs", "misses forwarded to the global home")),
      _statParentInvs(_stats.counter(
          "parent_invs", "invalidations received from the global home")),
      _statParentRetries(_stats.counter(
          "parent_retries", "parent BUSY-nack retry rounds")),
      _statLocalGrants(_stats.counter(
          "local_grants", "requests satisfied from the chip copy")),
      _statEvictions(
          _stats.counter("evictions", "chip-dir pointer evictions")),
      _statReadTraps(_stats.counter(
          "read_traps", "chip-level pointer-overflow (read) traps")),
      _statWriteTraps(_stats.counter(
          "write_traps", "chip-level software write-gather traps")),
      _statTrapCycles(_stats.counter(
          "trap_cycles", "cycles spent in chip-level Ts emulation")),
      _statStaleAcks(
          _stats.counter("stale_acks", "acknowledgments ignored")),
      _statWorkerSet(_stats.distribution(
          "worker_set", "local sharers invalidated per chip write",
          amap.clusterSize()))
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
        // Chip-level chaining is not modelled: the chained scheme's
        // distributed lists live at the global level (between chip
        // homes); within a chip the handful of local sharers fit a
        // plain map. See docs/HIERARCHY.md.
        _dir = std::make_unique<FullMapDir>(_amap.numNodes());
        break;
      case ProtocolKind::privateOnly:
        panic("private-only scheme has no chip home");
    }
    _policy = &home::hierChipPolicyFor(_proto.kind);
}

double
ChipHomeController::overflowFraction() const
{
    const double reqs = static_cast<double>(_statReads.value() +
                                            _statWrites.value());
    if (reqs == 0)
        return 0.0;
    return (_statReadTraps.value() + _statWriteTraps.value()) / reqs;
}

bool
ChipHomeController::wantsResponse(Addr line, Opcode op) const
{
    const ChipState st = lineState(line);
    switch (op) {
      case Opcode::RDATA:
        return st == ChipState::hFillRead;
      case Opcode::WDATA:
        return st == ChipState::hFillWrite;
      case Opcode::BUSY:
        return st == ChipState::hFillRead ||
               st == ChipState::hFillWrite ||
               st == ChipState::hFillWriteInv;
      case Opcode::INV:
        // Local caches are only invalidated by their own chip home (via
        // loopback when they share its node), so a remote INV here is
        // always the global home recalling the chip's copy.
        return true;
      case Opcode::MUPD:
        // Update-mode lines are unsupported under --hier: a chip home
        // cannot refresh copies it granted from a single MUPD. Routing
        // it into the chip table panics on the undeclared pair, which
        // is the documented loud failure. Home-chip sharers (tracked
        // directly by the global home) still work.
        return true;
      default:
        return false;
    }
}

std::size_t
ChipHomeController::workerSetSize(Addr line) const
{
    std::vector<NodeId> all;
    chipSharers(line, all);
    return all.size();
}

void
ChipHomeController::chipSharers(Addr line, std::vector<NodeId> &out) const
{
    _dir->sharers(line, out);
    _swTable.sharers(line, out);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
}

// --------------------------------------------------------------------
// Service loop (mirrors MemoryController)
// --------------------------------------------------------------------

void
ChipHomeController::enqueue(PacketPtr pkt)
{
    assert(pkt && pkt->isProtocol());
    assert(_amap.chipHomeOf(pkt->addr(), _amap.clusterOf(_self)) ==
               _self &&
           "packet routed to the wrong chip home");
    assert(_amap.clusterOf(_amap.homeOf(pkt->addr())) !=
               _amap.clusterOf(_self) &&
           "home-chip lines are serviced by the global home directly");
    _queue.push_back(std::move(pkt));
    scheduleService();
}

void
ChipHomeController::scheduleService()
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
ChipHomeController::service()
{
    assert(!_queue.empty());
    PacketPtr pkt = std::move(_queue.front());
    _queue.pop_front();
    _extraDelay = 0;
    _statRequests += 1;
    if (Log::enabled("chip"))
        Log::debug(_eq.now(), "chip", "chip %u [%s] sv %s", _self,
                   chipStateName(lineState(pkt->addr())),
                   describePacket(*pkt).c_str());

    const Addr line = pkt->addr();
    const NodeId src = pkt->src;
    const Opcode op = pkt->opcode;
    const ChipState pre = lineState(line);
    const std::uint64_t txn_id = pkt->txnId;
    const std::uint32_t txn_leg = pkt->legSpan;
    const std::uint32_t txn_cause = pkt->causeSpan;
    // Re-stamped on deferred replay, so earlier rounds land in req_net.
    if (op == Opcode::RREQ || op == Opcode::WREQ)
        FlightRecorder::instance().latency().onChipArrival(_eq.now(), src,
                                                           line);
    if (txn_id && (op == Opcode::ACKC || op == Opcode::UPDATE))
        FlightRecorder::instance().txn().onInvAck(txn_id, txn_cause,
                                                  _eq.now());
    {
        TraceEvent ev;
        ev.ts = _eq.now();
        ev.name = "chip_service";
        ev.cat = EventCat::mem;
        ev.node = _self;
        ev.line = line;
        ev.op = op;
        ev.hasOp = true;
        ev.src = src;
        ev.detail = chipStateName(pre);
        FR_RECORD(ev);
    }

    process(pkt);
    const ChipState post = lineState(line);
    if (post != pre) {
        TraceEvent ev;
        ev.ts = _eq.now();
        ev.name = "chip_fsm_state";
        ev.cat = EventCat::mem;
        ev.node = _self;
        ev.line = line;
        ev.detail = chipStateName(post);
        FR_RECORD(ev);
    }
    _busyUntil = _eq.now() + _params.serviceCycles + _extraDelay;
    if (txn_id && (op == Opcode::RREQ || op == Opcode::WREQ))
        FlightRecorder::instance().txn().onHomeService(
            txn_id, txn_leg, _self, op, _eq.now(), _busyUntil);
    scheduleService();
}

void
ChipHomeController::process(PacketPtr &pkt)
{
    const Addr line = pkt->addr();
    const NodeId src = pkt->src;
    const Opcode op = pkt->opcode;
    _curTxn = pkt->txnId;
    ChipLine &cl = lineFor(line);
    home::ChipCtx ctx{*this, pkt, cl};

    if (_wsProfile && (op == Opcode::RREQ || op == Opcode::WREQ))
        _wsProfile->sample(workerSetSize(line));

    const auto pre = static_cast<std::uint8_t>(cl.state);
    const auto &tr = _policy->table->fire(ctx, pre, op);
    _observed.note(pre, op);
    {
        TraceEvent ev;
        ev.ts = _eq.now();
        ev.name = "chip_transition";
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

// --------------------------------------------------------------------
// Send helpers
// --------------------------------------------------------------------

void
ChipHomeController::dispatch(PacketPtr pkt)
{
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
ChipHomeController::grantRead(NodeId to, Addr line)
{
    FlightRecorder::instance().latency().onReplySent(
        _eq.now() + _extraDelay, to, line);
    const ChipLine &cl = lineFor(line);
    // Local relays never carry a chain operand: chip-level chaining is
    // not modelled, and the cache treats a missing operand as no chain.
    dispatch(makeDataPacket(_self, to, Opcode::RDATA, line,
                            cl.data.data(), _amap.wordsPerLine()));
}

void
ChipHomeController::grantWrite(NodeId to, Addr line)
{
    FlightRecorder::instance().latency().onReplySent(
        _eq.now() + _extraDelay, to, line);
    const ChipLine &cl = lineFor(line);
    dispatch(makeDataPacket(_self, to, Opcode::WDATA, line,
                            cl.data.data(), _amap.wordsPerLine()));
}

void
ChipHomeController::sendInvLocal(NodeId to, Addr line)
{
    _statInvsSent += 1;
    const NodeId pending = lineFor(line).pending;
    if (pending != invalidNode)
        FlightRecorder::instance().latency().onInvStart(
            _eq.now() + _extraDelay, pending, line);
    {
        TraceEvent ev;
        ev.ts = _eq.now();
        ev.name = "chip_inv_tx";
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
ChipHomeController::forwardToParent(Addr line, bool write)
{
    ChipLine &cl = lineFor(line);
    _statParentReqs += 1;
    if (cl.pending != invalidNode)
        FlightRecorder::instance().latency().onParentForward(
            _eq.now() + _extraDelay, cl.pending, line, _self);
    dispatch(makeProtocolPacket(
        _self, parentOf(line), write ? Opcode::WREQ : Opcode::RREQ, line));
}

void
ChipHomeController::retryParent(Addr line)
{
    ChipLine &cl = lineFor(line);
    _statParentRetries += 1;
    const Tick delay =
        chipRetryBase
        << std::min<std::uint32_t>(cl.retries, chipRetryCapShift);
    cl.retries += 1;
    if (_curTxn && cl.pending != invalidNode)
        FlightRecorder::instance().txn().onBusyBackoff(
            cl.pending, line, _eq.now(), delay, cl.retries);
    const std::uint64_t txn = _curTxn;
    _eq.schedule(_eq.now() + delay, [this, line, txn]() {
        ChipLine &l = lineFor(line);
        if (l.state != ChipState::hFillRead &&
            l.state != ChipState::hFillWrite &&
            l.state != ChipState::hFillWriteInv)
            return; // the fill resolved another way meanwhile
        _curTxn = txn;
        forwardToParent(line, l.pendingIsWrite);
        _curTxn = 0;
    }, EventPriority::ctrl);
}

void
ChipHomeController::ackParent(Addr line)
{
    ChipLine &cl = lineFor(line);
    auto pkt =
        makeProtocolPacket(_self, parentOf(line), Opcode::ACKC, line);
    // Chained parent level: echo the successor from our fill so the
    // global chain walk can continue past this chip (mirrors the cache
    // side's sendAck).
    pkt->operands.push_back(cl.parentChainNext);
    cl.parentChainNext = invalidNode;
    dispatch(std::move(pkt));
}

void
ChipHomeController::updateParent(Addr line)
{
    const ChipLine &cl = lineFor(line);
    dispatch(makeDataPacket(_self, parentOf(line), Opcode::UPDATE, line,
                            cl.data.data(), _amap.wordsPerLine()));
}

void
ChipHomeController::ackReplace(NodeId to, Addr line)
{
    dispatch(makeProtocolPacket(_self, to, Opcode::REPC_ACK, line));
}

void
ChipHomeController::storeData(Addr line, const Packet &pkt)
{
    ChipLine &cl = lineFor(line);
    const unsigned n =
        std::min<unsigned>(pkt.data.size(), _amap.wordsPerLine());
    for (unsigned i = 0; i < n; ++i)
        cl.data[i] = pkt.data[i];
}

void
ChipHomeController::fillFromParent(Addr line, const Packet &pkt)
{
    FlightRecorder::instance().latency().onParentConsumed(_eq.now(),
                                                          _self, line);
    storeData(line, pkt);
    ChipLine &cl = lineFor(line);
    cl.retries = 0;
    if (pkt.operands.size() > 1)
        cl.parentChainNext = static_cast<NodeId>(pkt.operands[1]);
}

void
ChipHomeController::deferOrBusy(PacketPtr &pkt, ChipLine &cl)
{
    assert(opcodeIsHomeRequest(pkt->opcode));
    if (cl.deferred.size() < _params.deferDepth) {
        cl.deferred.push_back(std::move(pkt));
        return;
    }
    _statBusyNacks += 1;
    dispatch(makeProtocolPacket(_self, pkt->src, Opcode::BUSY,
                                pkt->addr()));
}

void
ChipHomeController::replayDeferred(ChipLine &cl)
{
    for (auto it = cl.deferred.rbegin(); it != cl.deferred.rend(); ++it)
        _queue.push_front(std::move(*it));
    cl.deferred.clear();
    scheduleService();
}

void
ChipHomeController::chargeTrap(Tick cycles, NodeId requester, Addr line)
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
        ev.name = "chip_trap_charge";
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

// --------------------------------------------------------------------
// Checkpoint (checker fingerprint)
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
ChipHomeController::checkpoint(std::ostream &os) const
{
    std::set<Addr> lines;
    for (const auto &[line, cl] : _lines)
        lines.insert(line);

    os << "chip" << _self << "{";
    for (Addr line : lines) {
        const ChipLine &cl = _lines.find(line)->second;
        os << "L" << std::hex << line << std::dec << ":"
           << chipStateName(cl.state) << ",a" << cl.ackCtr << ",p";
        if (cl.pending != invalidNode)
            os << cl.pending;
        if (cl.pendingIsWrite)
            os << "w";
        os << (cl.dirty ? ",D" : "") << (cl.dataSeen ? ",d" : "")
           << (cl.parentInvPending ? ",P" : "");
        if (cl.parentChainNext != invalidNode)
            os << ",n" << cl.parentChainNext;
        if (cl.evictVictim != invalidNode)
            os << ",e" << cl.evictVictim;
        for (const PacketPtr &pkt : cl.deferred) {
            os << ",q";
            checkpointPacket(os, *pkt);
        }
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
        // The chip copy's words matter for safety whenever the chip
        // holds (or is filling) data.
        if (cl.state != ChipState::hInvalid) {
            os << "/m";
            for (unsigned w = 0; w < _amap.wordsPerLine(); ++w)
                os << (w ? "," : "") << cl.data[w];
        }
        os << ";";
    }
    for (const PacketPtr &pkt : _queue) {
        os << "Q";
        checkpointPacket(os, *pkt);
        os << ";";
    }
    os << "}";
}

} // namespace limitless
