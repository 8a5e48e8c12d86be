#include "hier/chip_home.hh"

#include <algorithm>
#include <ostream>
#include <set>

#include "mem/home/hier_home.hh"
#include "obs/flight_recorder.hh"

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

static_assert(numChipStates <= HomeCore::maxStates);

const HomeLevel chipLevel{
    "chip", "chip", "chip.service",
    "chip_service", "chip_fsm_state", "chip_transition", "chip_inv_tx",
    "chip_trap_charge",
    chipSideStateName, &LatencyTracker::onChipArrival,
};

} // namespace

ChipHomeController::ChipHomeController(EventQueue &eq, NodeId self,
                                       const AddressMap &amap,
                                       const ProtocolParams &proto,
                                       const MemParams &params)
    : HomeCore(chipLevel, eq, self, amap, proto, params),
      _statParentReqs(_stats.counter(
          "parent_reqs", "misses forwarded to the global home")),
      _statParentInvs(_stats.counter(
          "parent_invs", "invalidations received from the global home")),
      _statParentRetries(_stats.counter(
          "parent_retries", "parent BUSY-nack retry rounds")),
      _statLocalGrants(_stats.counter(
          "local_grants", "requests satisfied from the chip copy")),
      _statWorkerSet(_stats.distribution(
          "worker_set", "local sharers invalidated per chip write",
          amap.clusterSize()))
{
    _policy = &home::hierChipPolicyFor(_proto.kind);
}

bool
ChipHomeController::homes(Addr line) const
{
    // Home-chip lines are serviced by the global home directly.
    return _amap.chipHomeOf(line, _amap.clusterOf(_self)) == _self &&
           _amap.clusterOf(_amap.homeOf(line)) != _amap.clusterOf(_self);
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

void
ChipHomeController::process(PacketPtr &pkt)
{
    const Addr line = pkt->addr();
    const NodeId src = pkt->src;
    const Opcode op = pkt->opcode;
    ChipLine &cl = lineFor(line);
    home::ChipCtx ctx{*this, pkt, cl};
    const auto pre = static_cast<std::uint8_t>(cl.state);
    const auto &tr = _policy->table->fire(ctx, pre, op);
    noteTransition(line, src, pre, op, tr.label, tr.id);
}

// --------------------------------------------------------------------
// Send helpers
// --------------------------------------------------------------------

void
ChipHomeController::grantRead(NodeId to, Addr line)
{
    // Local relays never carry a chain operand: chip-level chaining is
    // not modelled, and the cache treats a missing operand as no chain.
    dispatch(dataReply(to, Opcode::RDATA, line, lineFor(line).data));
}

void
ChipHomeController::grantWrite(NodeId to, Addr line)
{
    dispatch(dataReply(to, Opcode::WDATA, line, lineFor(line).data));
}

void
ChipHomeController::forwardToParent(Addr line, bool write)
{
    ChipLine &cl = lineFor(line);
    _statParentReqs += 1;
    if (cl.pending != invalidNode)
        FlightRecorder::instance().latency().onParentForward(
            launchTime(), cl.pending, line, _self);
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

// --------------------------------------------------------------------
// Checkpoint (checker fingerprint)
// --------------------------------------------------------------------

void
ChipHomeController::checkpoint(std::ostream &os) const
{
    std::set<Addr> lines;
    for (const auto &[line, cl] : _lines)
        lines.insert(line);

    os << "chip" << _self << "{";
    for (Addr line : lines) {
        const ChipLine &cl = *_lines.find(line);
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
        checkpointDeferred(os, cl);
        checkpointDirectory(os, line);
        // The chip copy's words matter for safety whenever the chip
        // holds (or is filling) data.
        if (cl.state != ChipState::hInvalid) {
            os << "/m";
            for (unsigned w = 0; w < _amap.wordsPerLine(); ++w)
                os << (w ? "," : "") << cl.data[w];
        }
        os << ";";
    }
    checkpointQueue(os);
    os << "}";
}

} // namespace limitless
