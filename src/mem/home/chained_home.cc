/**
 * @file
 * Chained-directory home policy (comparison baseline).
 *
 * The home keeps only a head pointer; caches hold forward pointers. The
 * defining property — sequential invalidation latency proportional to the
 * sharing-chain length — is modelled by walking the chain one member at a
 * time: the home INVs the current member, the member's ACKC carries its
 * successor, and the home proceeds. (Real SCI forwards the invalidation
 * cache-to-cache; driving the walk from the home doubles the constant but
 * preserves the linear shape and avoids SCI's unordered-channel races;
 * see DESIGN.md.)
 *
 * Shared lines may not be dropped silently (the chain would break);
 * replacement uses an explicit REPC transaction that unlinks via a full
 * chain invalidation. WUPD/RUNC traffic never reaches a chained home
 * (update mode is unsupported and private-only is a separate scheme), so
 * those opcodes are deliberately undeclared and die in the engine.
 */

#include <cassert>

#include "directory/chained_dir.hh"
#include "mem/home/home_actions.hh"
#include "mem/memory_controller.hh"
#include "proto/states.hh"

namespace limitless
{
namespace home
{

namespace
{

// Guards -------------------------------------------------------------

bool
chainEmpty(const HomeCtx &c)
{
    return c.mc.chainedDir()->head(c.line()) == invalidNode;
}

// Read-Only actions --------------------------------------------------

void
roChainRead(HomeCtx &c)
{
    const Addr line = c.line();
    const NodeId src = c.src();
    c.mc.noteRead();
    // New reader becomes the head and links to the old head.
    const NodeId head = c.mc.chainedDir()->head(line);
    c.mc.chainedDir()->push(line, src);
    c.mc.sendReadData(src, line, head);
}

void
roWriteGrant(HomeCtx &c)
{
    const Addr line = c.line();
    const NodeId src = c.src();
    c.mc.noteWrite();
    c.mc.noteWorkerSet(1);
    c.mc.chainedDir()->push(line, src);
    c.mc.sendWriteData(src, line);
}

void
roWriteWalk(HomeCtx &c)
{
    const Addr line = c.line();
    const NodeId src = c.src();
    const NodeId head = c.mc.chainedDir()->head(line);
    c.mc.noteWrite();
    c.mc.noteWorkerSet(c.mc.chainedDir()->chainLength(line) + 1);
    c.hl.pending = src;
    c.hl.walkTarget = head;
    c.mc.sendInv(head, line);
}

/** REPC against a dissolved chain: nothing to unlink, ack at once. */
void
repcAckRequester(HomeCtx &c)
{
    c.mc.dispatch(makeProtocolPacket(c.mc.nodeId(), c.src(),
                                     Opcode::REPC_ACK, c.line()));
}

void
roRepcWalk(HomeCtx &c)
{
    const Addr line = c.line();
    const NodeId head = c.mc.chainedDir()->head(line);
    c.hl.repcRequester = c.src();
    c.hl.walkTarget = head;
    c.mc.sendInv(head, line);
}

// Read-Write actions -------------------------------------------------

NodeId
chainOwner(const HomeCtx &c)
{
    const NodeId owner = c.mc.chainedDir()->head(c.line());
    assert(owner != invalidNode);
    return owner;
}

void
rwChainRead(HomeCtx &c)
{
    const Addr line = c.line();
    const NodeId src = c.src();
    c.mc.noteRead();
    const NodeId owner = chainOwner(c);
    assert(src != owner);
    c.hl.pending = src;
    c.hl.dataSeen = false;
    c.mc.sendInv(owner, line);
}

void
rwChainWrite(HomeCtx &c)
{
    const Addr line = c.line();
    const NodeId src = c.src();
    c.mc.noteWrite();
    const NodeId owner = chainOwner(c);
    assert(src != owner);
    c.mc.noteWorkerSet(1);
    c.hl.pending = src;
    c.hl.walkTarget = invalidNode; // single-owner write
    c.mc.sendInv(owner, line);
}

void
rwChainReplace(HomeCtx &c)
{
    const Addr line = c.line();
    const NodeId owner = chainOwner(c);
    assert(c.src() == owner);
    (void)owner;
    c.mc.writeLine(line, c.pkt->data);
    c.mc.chainedDir()->clear(line);
    c.mc.replayDeferred(c.hl);
}

/**
 * The line is exclusively owned, so the requester's chained copy was
 * already invalidated (every transition into Read-Write dissolves the
 * chain): grant immediately. Deferring here would park the packet in a
 * stable state with no completion to replay it.
 */
void
rwRepcAck(HomeCtx &c)
{
    chainOwner(c); // assert the owner exists
    repcAckRequester(c);
}

// Transaction actions ------------------------------------------------

void
rtChainUpdate(HomeCtx &c)
{
    const Addr line = c.line();
    c.mc.writeLine(line, c.pkt->data);
    c.mc.chainedDir()->clear(line);
    c.mc.chainedDir()->push(line, c.hl.pending);
    c.mc.sendReadData(c.hl.pending, line, invalidNode);
    c.mc.replayDeferred(c.hl);
}

void
rtChainFinish(HomeCtx &c)
{
    const Addr line = c.line();
    c.mc.chainedDir()->clear(line);
    c.mc.chainedDir()->push(line, c.hl.pending);
    c.mc.sendReadData(c.hl.pending, line, invalidNode);
    c.hl.dataSeen = false;
    c.mc.replayDeferred(c.hl);
}

void
wtChainUpdate(HomeCtx &c)
{
    // Single-owner write: the previous owner returned the data.
    const Addr line = c.line();
    c.mc.writeLine(line, c.pkt->data);
    c.mc.chainedDir()->clear(line);
    c.mc.chainedDir()->push(line, c.hl.pending);
    c.mc.sendWriteData(c.hl.pending, line);
    c.mc.replayDeferred(c.hl);
}

/** One walk step done: INV the successor, or grant at the tail. */
void
wtWalkAck(HomeCtx &c)
{
    const Addr line = c.line();
    HomeLine &hl = c.hl;
    if (hl.walkTarget == invalidNode) {
        // Single-owner write whose REPM crossed our INV: the ACKC closes
        // the transaction (data arrived with the REPM).
        c.mc.chainedDir()->clear(line);
        c.mc.chainedDir()->push(line, hl.pending);
        c.mc.sendWriteData(hl.pending, line);
        hl.state = MemState::readWrite;
        c.mc.replayDeferred(hl);
        return;
    }
    const NodeId next = c.pkt->operands.size() > 1
                            ? static_cast<NodeId>(c.pkt->operands[1])
                            : invalidNode;
    if (next != invalidNode) {
        hl.walkTarget = next;
        c.mc.sendInv(next, line);
        return;
    }
    // Tail reached: the whole chain is invalid; grant the write.
    c.mc.chainedDir()->clear(line);
    c.mc.chainedDir()->push(line, hl.pending);
    c.mc.sendWriteData(hl.pending, line);
    hl.walkTarget = invalidNode;
    hl.state = MemState::readWrite;
    c.mc.replayDeferred(hl);
}

/** Replacement-walk step: INV the successor, or REPC_ACK at the tail. */
void
etWalkAck(HomeCtx &c)
{
    const Addr line = c.line();
    HomeLine &hl = c.hl;
    assert(!c.pkt->operands.empty());
    const NodeId next = c.pkt->operands.size() > 1
                            ? static_cast<NodeId>(c.pkt->operands[1])
                            : invalidNode;
    if (next != invalidNode) {
        hl.walkTarget = next;
        c.mc.sendInv(next, line);
        return;
    }
    c.mc.chainedDir()->clear(line);
    c.mc.dispatch(makeProtocolPacket(c.mc.nodeId(), hl.repcRequester,
                                     Opcode::REPC_ACK, line));
    hl.repcRequester = invalidNode;
    hl.walkTarget = invalidNode;
    hl.state = MemState::readOnly;
    c.mc.replayDeferred(hl);
}

} // namespace

const HomePolicy &
chainedHomePolicy()
{
    static const HomePolicy policy = [] {
        static HomeTable t("chained", ProtocolKind::chained,
                           TableSide::home, homeStateName);
        t.add(stRO, Opcode::RREQ, "ro_chain_read", roChainRead, stRO);
        t.add(stRO, Opcode::WREQ, "ro_write_grant", chainEmpty,
              "chain_empty", roWriteGrant, stRW);
        t.add(stRO, Opcode::WREQ, "ro_chain_walk", roWriteWalk, stWT);
        t.add(stRO, Opcode::REPC, "ro_repc_ack", chainEmpty,
              "chain_empty", repcAckRequester, stRO);
        t.add(stRO, Opcode::REPC, "ro_repc_walk", roRepcWalk, stET);

        t.add(stRW, Opcode::RREQ, "rw_recall_read", rwChainRead, stRT);
        t.add(stRW, Opcode::WREQ, "rw_recall_write", rwChainWrite, stWT);
        t.add(stRW, Opcode::REPM, "rw_owner_replace", rwChainReplace,
              stRO);
        t.add(stRW, Opcode::REPC, "rw_repc_ack", rwRepcAck, stRW);

        addDeferRows(t, stRT);
        t.add(stRT, Opcode::UPDATE, "rt_update", rtChainUpdate, stRO);
        t.add(stRT, Opcode::REPM, "rt_crossed_data", rtCrossedData,
              stRT);
        t.add(stRT, Opcode::ACKC, "rt_finish", dataSeenGuard,
              "data_seen", rtChainFinish, stRO);
        t.add(stRT, Opcode::ACKC, "stale_ack", staleAck, stRT);

        addDeferRows(t, stWT);
        t.add(stWT, Opcode::UPDATE, "wt_update", wtChainUpdate, stRW);
        t.add(stWT, Opcode::REPM, "wt_crossed_data", wtCrossedData,
              stWT);
        t.add(stWT, Opcode::ACKC, "wt_walk_ack", wtWalkAck,
              dynamicNextState);

        addDeferRows(t, stET);
        t.add(stET, Opcode::ACKC, "et_walk_ack", etWalkAck,
              dynamicNextState);
        t.registerSelf();
        return HomePolicy{&t, nullptr};
    }();
    return policy;
}

} // namespace home
} // namespace limitless
