/**
 * @file
 * Shared home-side guards and actions: the scheme-independent parts of
 * the paper's Table 3 memory-side FSM, expressed as guarded actions over
 * HomeCtx. Scheme-specific rows live in the sibling *_home.cc units.
 */

#include "mem/home/home_actions.hh"

#include <cassert>

#include "cache/mem_op.hh"
#include "machine/coherence_policy.hh"
#include "mem/memory_controller.hh"
#include "obs/flight_recorder.hh"

namespace limitless
{
namespace home
{

// --------------------------------------------------------------------
// Guards
// --------------------------------------------------------------------

bool
dirHasRoom(const HomeCtx &c)
{
    return c.mc.directory().canAdd(c.line(), c.src());
}

bool
dataSeenGuard(const HomeCtx &c)
{
    return c.hl.dataSeen;
}

// --------------------------------------------------------------------
// Helpers
// --------------------------------------------------------------------

NodeId
soleOwner(const HomeCtx &c)
{
    std::vector<NodeId> owner_list;
    c.mc.directory().sharers(c.line(), owner_list);
    assert(owner_list.size() == 1 && "Read-Write must have one owner");
    return owner_list[0];
}

void
startWriteTransaction(HomeCtx &c, NodeId requester,
                      const std::vector<NodeId> &to_inv)
{
    const Addr line = c.line();
    if (to_inv.empty()) {
        // Transition 2: no other copies; grant immediately.
        c.hl.state = MemState::readWrite;
        c.mc.sendWriteData(requester, line);
        return;
    }
    // Transition 3: invalidate every other copy first.
    c.hl.state = MemState::writeTransaction;
    c.hl.pending = requester;
    c.hl.ackCtr = static_cast<std::uint32_t>(to_inv.size());
    for (NodeId n : to_inv)
        c.mc.sendInv(n, line);
}

// --------------------------------------------------------------------
// Read-Only actions
// --------------------------------------------------------------------

void
grantRead(HomeCtx &c)
{
    const Addr line = c.line();
    const NodeId src = c.src();
    c.mc.noteRead();
    const DirAdd r = c.mc.directory().tryAdd(line, src);
    if (r == DirAdd::overflow)
        panic("home %u: pointer overflow on a guarded read grant",
              c.mc.nodeId());
    c.mc.sendReadData(src, line);
}

void
roWrite(HomeCtx &c)
{
    const Addr line = c.line();
    const NodeId src = c.src();
    c.mc.noteWrite();
    std::vector<NodeId> sharer_list;
    c.mc.directory().sharers(line, sharer_list);
    std::vector<NodeId> others;
    for (NodeId n : sharer_list)
        if (n != src)
            others.push_back(n);
    c.mc.noteWorkerSet(others.size() + 1);
    c.mc.directory().clear(line);
    const DirAdd r = c.mc.directory().tryAdd(line, src);
    assert(r != DirAdd::overflow);
    (void)r;
    startWriteTransaction(c, src, others);
}

void
writeUpdate(HomeCtx &c)
{
    MemoryController &mc = c.mc;
    Packet &pkt = *c.pkt;
    const Addr line = pkt.addr();
    const NodeId src = pkt.src;
    const unsigned word = static_cast<unsigned>(pkt.operands.at(1));
    const auto kind = static_cast<MemOpKind>(pkt.operands.at(2));
    const std::uint64_t value = pkt.operands.at(3);
    assert(word < mc.addressMap().wordsPerLine());

    // Perform the operation at memory (atomic: the home serializes).
    LineWords &mem = mc.lineWords(line);
    const std::uint64_t old = mem[word];
    switch (kind) {
      case MemOpKind::store:
      case MemOpKind::swap:
        mem[word] = value;
        break;
      case MemOpKind::fetchAdd:
        mem[word] = old + value;
        break;
      case MemOpKind::load:
        panic("WUPD carrying a load");
    }
    mc.noteWriteUpdate();

    // Refresh every cached copy in place; the sharer set is untouched
    // (that is the whole point of update mode). Software-extended state
    // is consulted but not freed.
    std::vector<NodeId> sharers;
    mc.sharers(line, sharers);

    // This is a software-synthesized coherence type on the LimitLESS
    // machine: charge the handler occupancy.
    if (mc.limitlessDir())
        mc.chargeTrap(mc.protocol().softwareLatency, src, line);

    if (sharers.empty()) {
        auto wack = makeProtocolPacket(mc.nodeId(), src, Opcode::WACK,
                                       line);
        wack->operands.push_back(old);
        mc.dispatch(std::move(wack));
        return;
    }
    c.hl.state = MemState::writeTransaction;
    c.hl.updWrite = true;
    c.hl.updOld = old;
    c.hl.pending = src;
    c.hl.ackCtr = static_cast<std::uint32_t>(sharers.size());
    for (NodeId n : sharers) {
        auto mupd = makeDataPacket(mc.nodeId(), n, Opcode::MUPD, line,
                                   mem.data(),
                                   mc.addressMap().wordsPerLine());
        mc.dispatch(std::move(mupd));
    }
}

void
uncachedRead(HomeCtx &c)
{
    // Uncached read (private-only baseline): data, no pointer.
    c.mc.noteRead();
    c.mc.sendReadData(c.src(), c.line());
}

void
staleAck(HomeCtx &c)
{
    // The fall-through of rt_finish's data_seen guard: no in-order
    // fabric fires it (docs/CHECKER.md §6), but it keeps the row the
    // checker's deadlock fault lands on, and the stat it bumps is
    // asserted zero by the property tests.
    c.mc.noteStaleAck();
}

void
deferRequest(HomeCtx &c)
{
    c.mc.deferOrBusy(c.pkt, c.hl);
}

// --------------------------------------------------------------------
// Read-Write actions
// --------------------------------------------------------------------

void
rwRead(HomeCtx &c)
{
    const Addr line = c.line();
    const NodeId src = c.src();
    c.mc.noteRead();
    const NodeId owner = soleOwner(c);
    assert(src != owner && "owner re-requesting a line it owns");
    c.mc.directory().clear(line);
    c.mc.directory().tryAdd(line, src);
    c.hl.pending = src;
    c.hl.dataSeen = false;
    c.mc.sendInv(owner, line);
}

void
rwWrite(HomeCtx &c)
{
    const Addr line = c.line();
    const NodeId src = c.src();
    c.mc.noteWrite();
    const NodeId owner = soleOwner(c);
    assert(src != owner);
    c.mc.noteWorkerSet(1);
    c.mc.directory().clear(line);
    c.mc.directory().tryAdd(line, src);
    c.hl.pending = src;
    c.hl.ackCtr = 1;
    c.mc.sendInv(owner, line);
}

void
rwUncachedRecall(HomeCtx &c)
{
    // Uncached read of a dirty line: recall the data first, then answer
    // without recording a pointer.
    const Addr line = c.line();
    const NodeId src = c.src();
    c.mc.noteRead();
    const NodeId owner = soleOwner(c);
    assert(src != owner);
    c.mc.directory().clear(line);
    c.hl.pending = src;
    c.hl.pendingUncached = true;
    c.hl.dataSeen = false;
    c.mc.sendInv(owner, line);
}

void
rwWupdRecall(HomeCtx &c)
{
    // Private-only remote write to the line the home node holds dirty:
    // recall the data, then apply.
    Packet &pkt = *c.pkt;
    const Addr line = pkt.addr();
    if (c.mc.coherencePolicy() && c.mc.coherencePolicy()->isUpdateMode(line))
        panic("home %u: update-mode line %#llx held exclusively "
              "(mark lines before first use)",
              c.mc.nodeId(), (unsigned long long)line);
    c.mc.noteWrite();
    const NodeId owner = soleOwner(c);
    c.mc.directory().clear(line);
    c.hl.pending = pkt.src;
    c.hl.ackCtr = 1;
    c.hl.updWrite = true;
    c.hl.updApply = true;
    c.hl.updWord = static_cast<unsigned>(pkt.operands.at(1));
    c.hl.updKind = static_cast<std::uint8_t>(pkt.operands.at(2));
    c.hl.updValue = pkt.operands.at(3);
    c.mc.sendInv(owner, line);
}

void
rwOwnerReplace(HomeCtx &c)
{
    const Addr line = c.line();
    const NodeId owner = soleOwner(c);
    assert(c.src() == owner && "REPM from a non-owner");
    (void)owner;
    c.mc.writeLine(line, c.pkt->data);
    c.mc.directory().clear(line);
    c.mc.replayDeferred(c.hl);
}

// --------------------------------------------------------------------
// Read-Transaction actions
// --------------------------------------------------------------------

void
rtFinish(HomeCtx &c)
{
    const Addr line = c.line();
    FlightRecorder::instance().latency().onInvEnd(c.mc.now(),
                                                  c.hl.pending, line);
    c.mc.sendReadData(c.hl.pending, line);
    c.hl.dataSeen = false;
    c.hl.pendingUncached = false;
    c.mc.replayDeferred(c.hl);
}

void
rtUpdate(HomeCtx &c)
{
    // Transition 10: previous owner returns the data.
    c.mc.writeLine(c.line(), c.pkt->data);
    rtFinish(c);
}

void
rtCrossedData(HomeCtx &c)
{
    // The owner's replacement crossed our INV; the data arrives here and
    // the owner's ACKC (to the INV) closes the transaction.
    c.mc.writeLine(c.line(), c.pkt->data);
    c.hl.dataSeen = true;
}

// --------------------------------------------------------------------
// Write-Transaction actions
// --------------------------------------------------------------------

void
wtAck(HomeCtx &c)
{
    MemoryController &mc = c.mc;
    HomeLine &hl = c.hl;
    const Addr line = c.line();
    assert(hl.ackCtr > 0 && "acknowledgment counter underflow");
    --hl.ackCtr;
    if (hl.ackCtr != 0)
        return;
    FlightRecorder::instance().latency().onInvEnd(mc.now(), hl.pending,
                                                  line);
    if (hl.updWrite) {
        if (hl.updApply) {
            // Recalled-data case: apply the write now that the owner's
            // data is in memory.
            LineWords &mem = mc.lineWords(line);
            hl.updOld = mem[hl.updWord];
            switch (static_cast<MemOpKind>(hl.updKind)) {
              case MemOpKind::store:
              case MemOpKind::swap:
                mem[hl.updWord] = hl.updValue;
                break;
              case MemOpKind::fetchAdd:
                mem[hl.updWord] = hl.updOld + hl.updValue;
                break;
              case MemOpKind::load:
                panic("WUPD carrying a load");
            }
            mc.noteWriteUpdate();
            hl.updApply = false;
        }
        // Update-mode write: every cached copy is refreshed; the writer
        // gets the old word, the line stays Read-Only.
        auto wack = makeProtocolPacket(mc.nodeId(), hl.pending,
                                       Opcode::WACK, line);
        wack->operands.push_back(hl.updOld);
        mc.dispatch(std::move(wack));
        hl.updWrite = false;
        hl.state = MemState::readOnly;
    } else {
        // Transition 8: grant write permission.
        mc.sendWriteData(hl.pending, line);
        hl.state = MemState::readWrite;
    }
    mc.replayDeferred(hl);
}

void
wtUpdate(HomeCtx &c)
{
    c.mc.writeLine(c.line(), c.pkt->data);
    wtAck(c);
}

void
wtCrossedData(HomeCtx &c)
{
    // Crossed replacement: take the data; the ACKC that follows the INV
    // performs the decrement (ack discipline, DESIGN.md §7).
    c.mc.writeLine(c.line(), c.pkt->data);
}

// --------------------------------------------------------------------
// Evict-Transaction actions
// --------------------------------------------------------------------

void
etComplete(HomeCtx &c)
{
    // Victim invalidated: recycle its pointer for the waiting reader.
    const Addr line = c.line();
    c.mc.directory().remove(line, c.hl.evictVictim);
    const DirAdd r = c.mc.directory().tryAdd(line, c.hl.pending);
    assert(r != DirAdd::overflow);
    (void)r;
    FlightRecorder::instance().latency().onInvEnd(c.mc.now(),
                                                  c.hl.pending, line);
    c.mc.sendReadData(c.hl.pending, line);
    c.hl.evictVictim = invalidNode;
    c.mc.replayDeferred(c.hl);
}

// --------------------------------------------------------------------
// Row-block builders
// --------------------------------------------------------------------

namespace
{

/** RUNC comes from private-only caches alone (remote reads uncached). */
bool
sendsRunc(const HomeTable &t)
{
    return t.info().kind == ProtocolKind::privateOnly;
}

} // namespace

void
addDeferRows(HomeTable &t, std::uint8_t state)
{
    // Transition 7: requests wait out the in-flight transaction. Only
    // the opcodes the scheme's caches send get a row: REPC comes from
    // chained caches alone, which send no WUPD. A WUPD is an update-mode
    // write or a private-only remote write. An update-mode line is never
    // held exclusively, so only private-only's WUPD can meet the
    // Read-Transaction that recalls a dirty line.
    t.add(state, Opcode::RREQ, "defer", deferRequest, state);
    t.add(state, Opcode::WREQ, "defer", deferRequest, state);
    if (t.info().kind == ProtocolKind::chained)
        t.add(state, Opcode::REPC, "defer", deferRequest, state);
    else if (state != stRT || sendsRunc(t))
        t.add(state, Opcode::WUPD, "defer", deferRequest, state);
    if (sendsRunc(t))
        t.add(state, Opcode::RUNC, "defer", deferRequest, state);
}

void
addRoCommonRows(HomeTable &t)
{
    t.add(stRO, Opcode::WUPD, "ro_write_update", writeUpdate,
          dynamicNextState);
    if (sendsRunc(t))
        t.add(stRO, Opcode::RUNC, "ro_uncached_read", uncachedRead, stRO);
}

void
addRwRows(HomeTable &t, void (*rreq_action)(HomeCtx &),
          void (*wreq_action)(HomeCtx &))
{
    t.add(stRW, Opcode::RREQ, "rw_recall_read", rreq_action, stRT);
    t.add(stRW, Opcode::WREQ, "rw_recall_write", wreq_action, stWT);
    t.add(stRW, Opcode::REPM, "rw_owner_replace", rwOwnerReplace, stRO);
}

void
addRtRows(HomeTable &t)
{
    addDeferRows(t, stRT);
    t.add(stRT, Opcode::UPDATE, "rt_update", rtUpdate, stRO);
    t.add(stRT, Opcode::REPM, "rt_crossed_data", rtCrossedData, stRT);
    t.add(stRT, Opcode::ACKC, "rt_finish", dataSeenGuard, "data_seen",
          rtFinish, stRO);
    t.add(stRT, Opcode::ACKC, "stale_ack", staleAck, stRT);
}

void
addWtRows(HomeTable &t)
{
    addDeferRows(t, stWT);
    t.add(stWT, Opcode::UPDATE, "wt_update", wtUpdate, dynamicNextState);
    t.add(stWT, Opcode::ACKC, "wt_ack", wtAck, dynamicNextState);
    t.add(stWT, Opcode::REPM, "wt_crossed_data", wtCrossedData, stWT);
}

void
addEtRows(HomeTable &t)
{
    addDeferRows(t, stET);
    t.add(stET, Opcode::ACKC, "et_complete", etComplete, stRO);
}

// --------------------------------------------------------------------
// Policy selection
// --------------------------------------------------------------------

const HomePolicy &
homePolicyFor(ProtocolKind kind)
{
    switch (kind) {
      case ProtocolKind::fullMap: return fullMapHomePolicy();
      case ProtocolKind::limited: return limitedHomePolicy();
      case ProtocolKind::limitless: return limitlessHomePolicy();
      case ProtocolKind::chained: return chainedHomePolicy();
      case ProtocolKind::privateOnly: return privateHomePolicy();
    }
    panic("unknown protocol kind %d", static_cast<int>(kind));
}

} // namespace home
} // namespace limitless
