#include "mem/memory_controller.hh"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <set>

#include "mem/home/home_policy.hh"
#include "obs/flight_recorder.hh"

namespace limitless
{

namespace
{

static_assert(numMemStates <= HomeCore::maxStates);

const HomeLevel globalLevel{
    "mem", "home", "mem.service",
    "service", "fsm_state", "transition", "inv_tx", "trap_charge",
    homeStateName, &LatencyTracker::onHomeArrival,
};

} // namespace

MemoryController::MemoryController(EventQueue &eq, NodeId self,
                                   const AddressMap &amap,
                                   const ProtocolParams &proto,
                                   const MemParams &params)
    : HomeCore(globalLevel, eq, self, amap, proto, params),
      _profile(amap.numNodes()),
      _statWriteUpdates(_stats.counter(
          "write_updates", "update-mode writes serviced (Section 6)")),
      _statMigratoryEvictions(_stats.counter(
          "migratory_evictions",
          "software FIFO pointer evictions on migratory lines")),
      _statWorkerSet(_stats.distribution(
          "worker_set", "sharers invalidated per write", amap.numNodes()))
{
    if (_proto.kind == ProtocolKind::chained)
        _chained = std::make_unique<ChainedDir>(self);
    _homePolicy = &home::homePolicyFor(_proto.kind);
}

void
MemoryController::writeLine(Addr line,
                            const std::vector<std::uint64_t> &words)
{
    LineWords &mem = lineWords(line);
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
    return HomeCore::workerSetSize(line);
}

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
        if (const HomeLine *hlp = _lines.find(line)) {
            const HomeLine &hl = *hlp;
            os << memStateName(hl.state) << ",a" << hl.ackCtr << ",p";
            if (hl.pending != invalidNode)
                os << hl.pending;
            os << (hl.dataSeen ? ",d" : "");
            if (hl.evictVictim != invalidNode)
                os << ",e" << hl.evictVictim;
            if (hl.updWrite || hl.updApply)
                os << ",u" << hl.updWrite << hl.updApply
                   << "." << hl.updWord << "." << int(hl.updKind) << "."
                   << hl.updValue << "." << hl.updOld;
            if (hl.pendingUncached)
                os << ",n";
            if (hl.walkTarget != invalidNode)
                os << ",w" << hl.walkTarget;
            if (hl.repcRequester != invalidNode)
                os << ",r" << hl.repcRequester;
            checkpointDeferred(os, hl);
        }
        checkpointDirectory(os, line);
        if (_chained && _chained->head(line) != invalidNode)
            os << "/ch" << _chained->head(line) << "x"
               << _chained->chainLength(line);
        if (const LineWords *words = _memory.find(line)) {
            os << "/m";
            for (unsigned w = 0; w < _amap.wordsPerLine(); ++w)
                os << (w ? "," : "") << (*words)[w];
        }
        os << ";";
    }
    checkpointQueue(os);
    os << "}";
}

void
MemoryController::processBypassingMeta(PacketPtr pkt)
{
    assert(pkt);
    _curTxn = pkt->txnId;
    fire(pkt, true);
}

// --------------------------------------------------------------------
// Send helpers
// --------------------------------------------------------------------

void
MemoryController::sendReadData(NodeId to, Addr line, NodeId old_head)
{
    auto pkt = dataReply(to, Opcode::RDATA, line, readLine(line));
    if (_chained)
        pkt->operands.push_back(old_head);
    dispatch(std::move(pkt));
}

void
MemoryController::sendWriteData(NodeId to, Addr line)
{
    dispatch(dataReply(to, Opcode::WDATA, line, readLine(line)));
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

std::size_t
MemoryController::gatherWrite(Addr line, NodeId writer, bool sticky,
                              std::vector<NodeId> &others)
{
    assert(_ldir && "write gather on a non-LimitLESS home");
    std::vector<NodeId> all;
    sharers(line, all);
    for (NodeId n : all)
        if (n != writer)
            others.push_back(n);
    noteWorkerSet(others.size() + 1);
    if (sticky) {
        _profile.addSharers(line, all);
        _profile.addSharer(line, writer);
    }
    _swTable.free(line);
    _ldir->clear(line);
    const DirAdd r = _ldir->tryAdd(line, writer);
    assert(r != DirAdd::overflow);
    (void)r;
    return all.size();
}

void
MemoryController::fire(PacketPtr &pkt, bool bypass_meta)
{
    const Addr line = pkt->addr();
    const NodeId src = pkt->src;
    const Opcode op = pkt->opcode;
    HomeLine &hl = lineFor(line);
    home::HomeCtx ctx{*this, pkt, hl, bypass_meta};
    if (_homePolicy->preDispatch && _homePolicy->preDispatch(ctx))
        return;
    const auto pre = static_cast<std::uint8_t>(hl.state);
    const auto &tr = _homePolicy->table->fire(ctx, pre, op);
    noteTransition(line, src, pre, op, tr.label, tr.id);
}

} // namespace limitless
