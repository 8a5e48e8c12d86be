#include "kernel/limitless_handler.hh"

#include <cassert>

#include "obs/flight_recorder.hh"
#include "obs/host_profiler.hh"
#include "sim/log.hh"

namespace limitless
{

LimitlessHandler::LimitlessHandler(EventQueue &eq, MemoryController &mc,
                                   KernelCosts costs)
    : _eq(eq), _mc(mc), _costs(costs),
      _statTraps(_stats.counter("traps", "LimitLESS traps taken")),
      _statReadTraps(
          _stats.counter("read_traps", "pointer-overflow read traps")),
      _statWriteTraps(
          _stats.counter("write_traps", "software write-gather traps")),
      _statCycles(_stats.counter("cycles", "handler occupancy cycles")),
      _statInvsSent(
          _stats.counter("invs_sent", "invalidations launched via IPI")),
      _statTrapCost(
          _stats.accumulator("trap_cost", "per-trap occupancy (cycles)"))
{
}

void
LimitlessHandler::finishLine(Addr line, MetaState restore_meta)
{
    LimitlessDir *ldir = _mc.limitlessDir();
    assert(ldir);
    if (ldir->meta(line) == MetaState::transInProgress)
        ldir->setMeta(line, restore_meta);
}

Tick
LimitlessHandler::handlePacket(const Packet &pkt,
                               std::vector<PacketPtr> &out,
                               MetaState &restore_meta)
{
    PROF_SCOPE("trap.emulate");
    LimitlessDir *ldir = _mc.limitlessDir();
    assert(ldir && "LimitLESS handler on a non-LimitLESS machine");
    const Addr line = pkt.addr();
    const MetaState why = ldir->prevMeta(line);
    _statTraps += 1;

    if (Log::enabled("handler"))
        Log::debug(_eq.now(), "handler", "node %u trap %s (was %s)",
                   _mc.nodeId(), describePacket(pkt).c_str(),
                   metaStateName(why));

    // Trap-Always lines that are not in a stable Read-Only state (e.g. a
    // dirty owner exists) must go through the ordinary transaction
    // machinery — serving them from memory would return stale data. The
    // handler records the access, as the inline rows do, re-executes the
    // hardware path and keeps the mode armed.
    Tick cost = 0;
    if (why == MetaState::trapAlways &&
        _mc.lineState(line) != MemState::readOnly) {
        restore_meta = MetaState::trapAlways;
        _mc.profileTable().addSharer(line, pkt.src);
        _mc.processBypassingMeta(clonePacket(pkt));
        cost = _costs.trapEntry + _costs.decode + _costs.stateUpdate;
    } else {
        switch (pkt.opcode) {
          case Opcode::RREQ:
            cost = why == MetaState::trapAlways
                       ? handleSoftwareRead(pkt, out, restore_meta)
                       : handleReadOverflow(pkt, out, restore_meta);
            break;

          case Opcode::WREQ:
            cost = handleWrite(pkt, out, restore_meta);
            break;

          case Opcode::UPDATE:
          case Opcode::REPM: {
            // Trap-On-Write also traps UPDATE/REPM (paper Table 4).
            // These only occur through exotic races; hand them back to
            // the hardware path after restoring the mode.
            restore_meta = why;
            _mc.processBypassingMeta(clonePacket(pkt));
            cost = _costs.trapEntry + _costs.decode + _costs.stateUpdate;
            break;
          }

          default:
            panic("LimitLESS handler: unexpected opcode %s",
                  opcodeName(pkt.opcode));
        }
    }
    _statCycles += cost;
    _statTrapCost.sample(static_cast<double>(cost));
    return cost;
}

PacketPtr
LimitlessHandler::buildData(Opcode op, NodeId to, Addr line)
{
    const LineWords &mem = _mc.readLine(line);
    const unsigned words = _mc.addressMap().wordsPerLine();
    return makeDataPacket(_mc.nodeId(), to, op, line, mem.data(), words);
}

PacketPtr
LimitlessHandler::buildInv(NodeId to, Addr line)
{
    auto pkt = makeProtocolPacket(_mc.nodeId(), to, Opcode::INV, line);
    pkt->operands.push_back(_mc.nodeId());
    _statInvsSent += 1;
    _mc.noteInvSent();
    return pkt;
}

Tick
LimitlessHandler::handleReadOverflow(const Packet &pkt,
                                     std::vector<PacketPtr> &out,
                                     MetaState &restore_meta)
{
    const Addr line = pkt.addr();
    const NodeId src = pkt.src;

    Tick cost = _costs.trapEntry + _costs.decode + _costs.hashLookup;
    if (!_mc.softwareTable().has(line))
        cost += _costs.vectorAlloc;

    // Empty the hardware pointers into the bit vector (paper §4.4).
    std::vector<NodeId> spilled;
    restore_meta = _mc.spillOverflow(line, src, spilled);
    cost += spilled.size() * _costs.perPointer;

    out.push_back(buildData(Opcode::RDATA, src, line));
    cost += _costs.perInv + _costs.stateUpdate;

    _statReadTraps += 1;
    _mc.noteReadTrap(cost);
    {
        TraceEvent ev;
        ev.ts = _eq.now();
        ev.name = "ptr_overflow";
        ev.cat = EventCat::trap;
        ev.node = _mc.nodeId();
        ev.line = line;
        ev.src = src;
        ev.detail = "read_overflow";
        ev.arg = spilled.size();
        ev.hasArg = true;
        FR_RECORD(ev);
    }
    return cost;
}

Tick
LimitlessHandler::handleSoftwareRead(const Packet &pkt,
                                     std::vector<PacketPtr> &out,
                                     MetaState &restore_meta)
{
    // Trap-Always line (ablation D1 / profiling): software services every
    // read itself.
    const Addr line = pkt.addr();
    _mc.softwareTable().addSharer(line, pkt.src);
    _mc.profileTable().addSharer(line, pkt.src);
    out.push_back(buildData(Opcode::RDATA, pkt.src, line));
    restore_meta = MetaState::trapAlways;
    const Tick cost = _costs.trapEntry + _costs.decode +
                      _costs.hashLookup + _costs.perInv +
                      _costs.stateUpdate;
    _statReadTraps += 1;
    _mc.noteReadTrap(cost);
    {
        TraceEvent ev;
        ev.ts = _eq.now();
        ev.name = "sw_read";
        ev.cat = EventCat::trap;
        ev.node = _mc.nodeId();
        ev.line = line;
        ev.src = pkt.src;
        ev.detail = "trap_always";
        FR_RECORD(ev);
    }
    return cost;
}

Tick
LimitlessHandler::handleWrite(const Packet &pkt,
                              std::vector<PacketPtr> &out,
                              MetaState &restore_meta)
{
    const Addr line = pkt.addr();
    const NodeId src = pkt.src;

    // Return the line to hardware control (paper §4.4): requester in the
    // directory, acknowledgment counter set, Normal mode, and either the
    // grant (no sharers) or a Write-Transaction awaiting ACKCs.
    // Trap-Always lines stay armed and keep their cumulative profile.
    const bool sticky =
        _mc.limitlessDir()->prevMeta(line) == MetaState::trapAlways;
    std::vector<NodeId> others;
    const std::size_t gathered = _mc.gatherWrite(line, src, sticky, others);
    restore_meta = sticky ? MetaState::trapAlways : MetaState::normal;

    Tick cost = _costs.trapEntry + _costs.decode + _costs.hashLookup +
                gathered * _costs.perPointer + _costs.stateUpdate;

    if (others.empty()) {
        _mc.setLineState(line, MemState::readWrite);
        out.push_back(buildData(Opcode::WDATA, src, line));
        cost += _costs.perInv;
    } else {
        _mc.setLineState(line, MemState::writeTransaction);
        _mc.setAckCounter(line, static_cast<std::uint32_t>(others.size()));
        _mc.setPendingRequester(line, src);
        for (NodeId n : others)
            out.push_back(buildInv(n, line));
        cost += others.size() * _costs.perInv;
    }

    _statWriteTraps += 1;
    _mc.noteWriteTrap(cost);
    {
        TraceEvent ev;
        ev.ts = _eq.now();
        ev.name = "write_gather";
        ev.cat = EventCat::trap;
        ev.node = _mc.nodeId();
        ev.line = line;
        ev.src = src;
        ev.arg = others.size();
        ev.hasArg = true;
        FR_RECORD(ev);
    }
    return cost;
}

} // namespace limitless
