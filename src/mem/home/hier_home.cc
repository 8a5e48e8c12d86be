/**
 * @file
 * Chip-home transition tables for the two-level (--hier) mode, one per
 * directory scheme (TableSide::chip). The chip home is a *home* toward
 * its local caches and a *cache* toward the global home, so every row
 * here composes with the unmodified flat home and cache tables:
 *
 *  - local requests are granted from the chip copy when it suffices,
 *    and otherwise forwarded upward as an ordinary RREQ/WREQ;
 *  - the parent's INV is answered with ACKC (clean chip) or UPDATE
 *    (dirty chip), exactly like a cache, after the chip's own local
 *    fan-out completes;
 *  - each scheme reuses its own pointer economics at the chip level:
 *    limited evicts a local pointer (hChipET), LimitLESS spills to a
 *    chip-local software table and charges Ts — always in the inline
 *    stall-approximation style, independent of the global level's
 *    emulation mode.
 *
 * Update-mode lines (WUPD/MUPD) are not supported below the global
 * home: the simulator routes WUPD/RUNC straight to the global home, and
 * an MUPD reaching a chip home hits an undeclared (state, opcode) pair
 * — a loud engine panic rather than silent wrong sharing.
 */

#include <algorithm>
#include <cassert>
#include <vector>

#include "directory/limited_dir.hh"
#include "directory/limitless_dir.hh"
#include "mem/home/hier_home.hh"
#include "obs/flight_recorder.hh"

namespace limitless
{
namespace home
{

namespace
{

// State indices for table rows ---------------------------------------

constexpr auto hsI = static_cast<std::uint8_t>(ChipState::hInvalid);
constexpr auto hsC = static_cast<std::uint8_t>(ChipState::hCopy);
constexpr auto hsO = static_cast<std::uint8_t>(ChipState::hOwned);
constexpr auto hsFR = static_cast<std::uint8_t>(ChipState::hFillRead);
constexpr auto hsFW = static_cast<std::uint8_t>(ChipState::hFillWrite);
constexpr auto hsFWI =
    static_cast<std::uint8_t>(ChipState::hFillWriteInv);
constexpr auto hsWI = static_cast<std::uint8_t>(ChipState::hWriteInv);
constexpr auto hsR = static_cast<std::uint8_t>(ChipState::hRecall);
constexpr auto hsPI = static_cast<std::uint8_t>(ChipState::hParentInv);
constexpr auto hsET = static_cast<std::uint8_t>(ChipState::hChipET);

// Guards --------------------------------------------------------------

bool
chipDirHasRoom(const ChipCtx &c)
{
    return c.ch.directory().canAdd(c.line(), c.src());
}

/** Chip-level Trap-Always: the line was demoted to the chip software
 *  table without the Trap-On-Write pointer recycle (ablation D1). */
bool
chipTrapAlways(const ChipCtx &c)
{
    return c.ch.limitlessDir()->meta(c.line()) == MetaState::trapAlways;
}

/** The chip has software-extended local state a write must gather. */
bool
chipWriteNeedsTrap(const ChipCtx &c)
{
    return c.ch.softwareTable().has(c.line()) ||
           c.ch.limitlessDir()->meta(c.line()) != MetaState::normal;
}

/** No local copies at all: a parent INV can be answered immediately. */
bool
chipDirEmpty(const ChipCtx &c)
{
    return c.ch.directory().numSharers(c.line()) == 0 &&
           !c.ch.softwareTable().has(c.line());
}

bool
chipDataSeen(const ChipCtx &c)
{
    return c.cl.dataSeen;
}

// Small helpers --------------------------------------------------------

std::vector<NodeId>
localSharers(const ChipCtx &c)
{
    std::vector<NodeId> out;
    c.ch.sharers(c.line(), out);
    return out;
}

void
addLocalPointer(ChipCtx &c, NodeId n)
{
    const DirAdd r = c.ch.directory().tryAdd(c.line(), n);
    if (r == DirAdd::overflow)
        panic("chip %u: pointer overflow on a guarded local grant",
              c.ch.nodeId());
}

/** Close the local invalidation window for the pending requester. */
void
stampLocalInvEnd(ChipCtx &c)
{
    if (c.cl.pending != invalidNode)
        FlightRecorder::instance().latency().onInvEnd(
            c.ch.now(), c.cl.pending, c.line());
}

/** Answer the parent's INV: dirty chips write back, clean chips ack
 *  (the chip behaves exactly like a dirty/clean cache). */
void
answerParentInv(ChipCtx &c)
{
    if (c.cl.dirty) {
        c.ch.updateParent(c.line());
        c.cl.dirty = false;
    } else {
        c.ch.ackParent(c.line());
    }
}

// Miss forwarding (hInvalid) ------------------------------------------

void
iRead(ChipCtx &c)
{
    c.ch.noteRead();
    c.cl.pending = c.src();
    c.cl.pendingIsWrite = false;
    c.ch.forwardToParent(c.line(), false);
}

void
iWrite(ChipCtx &c)
{
    c.ch.noteWrite();
    c.cl.pending = c.src();
    c.cl.pendingIsWrite = true;
    c.ch.forwardToParent(c.line(), true);
}

/** Stale directory pointer at the parent crossing our ACKC/UPDATE;
 *  acknowledge regardless (mirrors the cache's inv_spurious). */
void
iSpuriousInv(ChipCtx &c)
{
    c.ch.noteStaleAck();
    c.ch.ackParent(c.line());
}

// Fill completion ------------------------------------------------------

void
frFill(ChipCtx &c)
{
    c.ch.fillFromParent(c.line(), *c.pkt);
    c.cl.dirty = false;
    addLocalPointer(c, c.cl.pending);
    c.ch.grantRead(c.cl.pending, c.line());
    c.cl.pending = invalidNode;
    c.ch.replayDeferred(c.cl);
}

void
fwFill(ChipCtx &c)
{
    c.ch.fillFromParent(c.line(), *c.pkt);
    // Write permission makes the chip the exclusive owner at the global
    // level; the local copy diverges from memory from here on.
    c.cl.dirty = true;
    c.ch.directory().clear(c.line());
    addLocalPointer(c, c.cl.pending);
    c.ch.grantWrite(c.cl.pending, c.line());
    c.cl.pending = invalidNode;
    c.cl.parentInvPending = false;
    c.ch.replayDeferred(c.cl);
}

void
fillBusy(ChipCtx &c)
{
    c.ch.retryParent(c.line());
}

/**
 * A parent INV crossed our in-flight WREQ while the chip still held
 * kept read copies (the upgrading requester's among them): invalidate
 * them all, ack the parent once they drain, then keep waiting for the
 * write data.
 */
void
fwInvLocals(ChipCtx &c)
{
    const Addr line = c.line();
    const std::vector<NodeId> all = localSharers(c);
    assert(!all.empty() && "guard admitted an empty chip");
    c.ch.noteParentInv();
    c.cl.ackCtr = static_cast<std::uint32_t>(all.size());
    for (NodeId n : all)
        c.ch.sendInvLocal(n, line);
    c.ch.directory().clear(line);
    c.ch.softwareTable().free(line);
}

/** Parent INV during a fill with no kept local copies: ack at once. */
void
fwInvAck(ChipCtx &c)
{
    c.ch.noteParentInv();
    c.ch.ackParent(c.line());
}

void
fwiAck(ChipCtx &c)
{
    assert(c.cl.ackCtr > 0 && "acknowledgment counter underflow");
    if (--c.cl.ackCtr != 0)
        return;
    c.ch.ackParent(c.line());
    c.cl.state = ChipState::hFillWrite;
}

// Read-shared chip copy (hCopy) ---------------------------------------

void
cGrantRead(ChipCtx &c)
{
    c.ch.noteRead();
    c.ch.noteLocalGrant();
    addLocalPointer(c, c.src());
    c.ch.grantRead(c.src(), c.line());
}

/** Chip-level Trap-Always read: the chip software table records the
 *  reader and the access is charged Ts (inline stall emulation). */
void
cSoftwareRead(ChipCtx &c)
{
    const Addr line = c.line();
    const NodeId src = c.src();
    c.ch.noteRead();
    c.ch.noteLocalGrant();
    c.ch.softwareTable().addSharer(line, src);
    c.ch.noteReadTrapTaken();
    c.ch.chargeTrap(c.ch.protocol().softwareLatency, src, line);
    c.ch.grantRead(src, line);
}

/** Chip pointer overflow on a read: spill the hardware pointers into
 *  the chip software table (LimitLESS, paper Section 3, applied one
 *  level down, with the flat level's spill) and charge Ts. */
void
cReadOverflowSoftware(ChipCtx &c)
{
    ChipHomeController &ch = c.ch;
    const Addr line = c.line();
    const NodeId src = c.src();
    ch.noteRead();
    ch.noteLocalGrant();
    const DirAdd r = ch.directory().tryAdd(line, src);
    assert(r == DirAdd::overflow && "guard admitted a non-overflow");
    (void)r;

    std::vector<NodeId> spilled;
    const MetaState meta = ch.spillOverflow(line, src, spilled);
    ch.noteReadTrapTaken();
    ch.chargeTrap(ch.protocol().softwareLatency, src, line);
    ch.limitlessDir()->setMeta(line, meta);
    ch.grantRead(src, line);
}

/** Chip pointer overflow on a read, limited scheme: evict a local
 *  victim pointer first (Dir_i NB economics at the chip level). */
void
cPointerEvict(ChipCtx &c)
{
    const Addr line = c.line();
    const NodeId src = c.src();
    c.ch.noteRead();
    const DirAdd r = c.ch.directory().tryAdd(line, src);
    assert(r == DirAdd::overflow && "guard admitted a non-overflow");
    (void)r;
    auto *ldir = static_cast<LimitedDir *>(&c.ch.directory());
    const NodeId victim = ldir->pickVictim(line);
    c.ch.noteEviction();
    c.cl.evictVictim = victim;
    c.cl.pending = src;
    c.cl.pendingIsWrite = false;
    c.ch.sendInvLocal(victim, line);
}

/**
 * Local write in hCopy, all schemes. Gathers the local sharer set
 * (hardware pointers plus any chip software spill), invalidates the
 * other local copies, and then either grants locally (the chip already
 * owns the line globally: dirty) or upgrades at the parent.
 */
void
cWriteCore(ChipCtx &c)
{
    ChipHomeController &ch = c.ch;
    ChipLine &cl = c.cl;
    const Addr line = c.line();
    const NodeId src = c.src();
    ch.noteWrite();

    const std::vector<NodeId> all = localSharers(c);
    std::vector<NodeId> others;
    for (NodeId n : all)
        if (n != src)
            others.push_back(n);
    const bool hadCopy =
        std::find(all.begin(), all.end(), src) != all.end();
    ch.noteWorkerSet(others.size() + 1);

    // A write gathers any chip software state back into hardware
    // (mirrors the flat write-gather; no-op for non-LimitLESS chips).
    if (LimitlessDir *ldir = ch.limitlessDir()) {
        ch.softwareTable().free(line);
        ldir->setMeta(line, MetaState::normal);
    }

    if (others.empty()) {
        if (cl.dirty) {
            // The chip is the global owner: grant without a parent
            // round trip — the two-level mode's payoff.
            ch.noteLocalGrant();
            ch.directory().clear(line);
            addLocalPointer(c, src);
            ch.grantWrite(src, line);
            cl.state = ChipState::hOwned;
            return;
        }
        // Clean read-shared chip: upgrade at the parent. The requester
        // keeps its read copy (like a cache upgrade) — tracked so a
        // crossing parent INV can still find and kill it.
        cl.pending = src;
        cl.pendingIsWrite = true;
        ch.forwardToParent(line, true);
        ch.directory().clear(line);
        if (hadCopy)
            addLocalPointer(c, src);
        cl.state = ChipState::hFillWrite;
        return;
    }

    cl.pending = src;
    cl.pendingIsWrite = true;
    cl.ackCtr = static_cast<std::uint32_t>(others.size());
    for (NodeId n : others)
        ch.sendInvLocal(n, line);
    ch.directory().clear(line);
    if (hadCopy)
        addLocalPointer(c, src);
    cl.state = ChipState::hWriteInv;
}

/** Chip-level software write-gather (LimitLESS): charge Ts on top of
 *  the common local write path. */
void
cWriteGather(ChipCtx &c)
{
    c.ch.noteWriteTrapTaken();
    c.ch.chargeTrap(c.ch.protocol().softwareLatency, c.src(), c.line());
    cWriteCore(c);
}

/**
 * Parent INV of the read-shared chip copy: fan the invalidation out to
 * every local copy, then answer the parent (dirty chips write back).
 */
void
cParentInv(ChipCtx &c)
{
    ChipHomeController &ch = c.ch;
    const Addr line = c.line();
    ch.noteParentInv();
    const std::vector<NodeId> all = localSharers(c);
    if (all.empty()) {
        answerParentInv(c);
        c.cl.state = ChipState::hInvalid;
        return;
    }
    c.cl.ackCtr = static_cast<std::uint32_t>(all.size());
    for (NodeId n : all)
        ch.sendInvLocal(n, line);
    ch.directory().clear(line);
    ch.softwareTable().free(line);
    if (LimitlessDir *ldir = ch.limitlessDir())
        ldir->setMeta(line, MetaState::normal);
    c.cl.state = ChipState::hParentInv;
}

/** Chained local cache replaced a clean copy: drop its pointer and
 *  grant the replacement. */
void
cReplace(ChipCtx &c)
{
    c.ch.directory().remove(c.line(), c.src());
    c.ch.ackReplace(c.src(), c.line());
}

// Exclusive local owner (hOwned) --------------------------------------

void
startLocalRecall(ChipCtx &c, bool for_write)
{
    ChipHomeController &ch = c.ch;
    ChipLine &cl = c.cl;
    const Addr line = c.line();
    std::vector<NodeId> owner;
    ch.directory().sharers(line, owner);
    assert(owner.size() == 1 && "hOwned without a sole local owner");
    cl.pending = c.src();
    cl.pendingIsWrite = for_write;
    cl.parentInvPending = false;
    cl.dataSeen = false;
    cl.ackCtr = 1;
    ch.sendInvLocal(owner[0], line);
    ch.directory().clear(line);
    cl.state = ChipState::hRecall;
}

void
oRecallRead(ChipCtx &c)
{
    c.ch.noteRead();
    startLocalRecall(c, false);
}

void
oRecallWrite(ChipCtx &c)
{
    c.ch.noteWrite();
    startLocalRecall(c, true);
}

/** Local owner replaced the line: its data folds into the chip copy
 *  and the chip stays a (dirty) read-shared holder at the global
 *  level. */
void
oOwnerReplace(ChipCtx &c)
{
    assert(c.ch.directory().contains(c.line(), c.src()) &&
           "REPM from a non-owner");
    c.ch.storeData(c.line(), *c.pkt);
    c.cl.dirty = true;
    c.ch.directory().clear(c.line());
    c.ch.replayDeferred(c.cl);
}

/** Parent INV while a local cache owns the line: recall the dirty data
 *  first, then write it back upward. */
void
oParentRecall(ChipCtx &c)
{
    ChipHomeController &ch = c.ch;
    ChipLine &cl = c.cl;
    const Addr line = c.line();
    ch.noteParentInv();
    std::vector<NodeId> owner;
    ch.directory().sharers(line, owner);
    assert(owner.size() == 1 && "hOwned without a sole local owner");
    cl.pending = invalidNode;
    cl.parentInvPending = true;
    cl.dataSeen = false;
    cl.ackCtr = 1;
    ch.sendInvLocal(owner[0], line);
    ch.directory().clear(line);
}

// Local recall (hRecall) ----------------------------------------------

void
recallComplete(ChipCtx &c)
{
    ChipHomeController &ch = c.ch;
    ChipLine &cl = c.cl;
    const Addr line = c.line();
    stampLocalInvEnd(c);
    cl.dataSeen = false;
    if (cl.parentInvPending) {
        // The recall was (or became) parent-driven: write the recalled
        // data back. Any local request that merged into this recall
        // restarts as a plain miss.
        answerParentInv(c);
        cl.parentInvPending = false;
        if (cl.pending != invalidNode) {
            ch.forwardToParent(line, cl.pendingIsWrite);
            cl.state = cl.pendingIsWrite ? ChipState::hFillWrite
                                         : ChipState::hFillRead;
        } else {
            cl.state = ChipState::hInvalid;
            ch.replayDeferred(cl);
        }
        return;
    }
    assert(cl.pending != invalidNode);
    addLocalPointer(c, cl.pending);
    if (cl.pendingIsWrite) {
        ch.noteLocalGrant();
        ch.grantWrite(cl.pending, line);
        cl.state = ChipState::hOwned;
    } else {
        ch.noteLocalGrant();
        ch.grantRead(cl.pending, line);
        cl.state = ChipState::hCopy;
    }
    cl.pending = invalidNode;
    ch.replayDeferred(cl);
}

/** The recalled owner writes back through the INV (UPDATE). */
void
rUpdate(ChipCtx &c)
{
    c.ch.storeData(c.line(), *c.pkt);
    c.cl.dirty = true;
    assert(c.cl.ackCtr > 0 && "acknowledgment counter underflow");
    if (--c.cl.ackCtr == 0)
        recallComplete(c);
}

/** The owner's replacement crossed our INV: take the data; the ACKC
 *  answering the INV closes the recall (ack discipline). */
void
rCrossedReplace(ChipCtx &c)
{
    c.ch.storeData(c.line(), *c.pkt);
    c.cl.dirty = true;
    c.cl.dataSeen = true;
}

void
rAckAfterData(ChipCtx &c)
{
    assert(c.cl.ackCtr > 0 && "acknowledgment counter underflow");
    if (--c.cl.ackCtr == 0)
        recallComplete(c);
}

/** Parent INV crossing an in-flight local recall: remember to answer
 *  the parent when the recall drains. */
void
rParentInv(ChipCtx &c)
{
    c.ch.noteParentInv();
    c.cl.parentInvPending = true;
}

// Local write fan-out (hWriteInv) -------------------------------------

void
wiAck(ChipCtx &c)
{
    ChipHomeController &ch = c.ch;
    ChipLine &cl = c.cl;
    const Addr line = c.line();
    assert(cl.ackCtr > 0 && "acknowledgment counter underflow");
    if (--cl.ackCtr != 0)
        return;
    stampLocalInvEnd(c);
    if (cl.parentInvPending) {
        // A parent INV arrived mid-fan-out: the chip lost the line
        // globally, so answer the parent and restart the local write as
        // an upgrade miss.
        answerParentInv(c);
        cl.parentInvPending = false;
        ch.directory().clear(line);
        ch.forwardToParent(line, true);
        cl.state = ChipState::hFillWrite;
        return;
    }
    if (cl.dirty) {
        // Global owner already: grant locally.
        ch.noteLocalGrant();
        ch.directory().clear(line);
        addLocalPointer(c, cl.pending);
        ch.grantWrite(cl.pending, line);
        cl.pending = invalidNode;
        ch.replayDeferred(cl);
        cl.state = ChipState::hOwned;
        return;
    }
    ch.forwardToParent(line, true);
    cl.state = ChipState::hFillWrite;
}

/** Parent INV crossing the local write fan-out: extend the fan-out to
 *  the kept requester copy and remember to answer the parent. */
void
wiParentInv(ChipCtx &c)
{
    ChipHomeController &ch = c.ch;
    const Addr line = c.line();
    ch.noteParentInv();
    c.cl.parentInvPending = true;
    const std::vector<NodeId> extra = localSharers(c);
    for (NodeId n : extra)
        ch.sendInvLocal(n, line);
    c.cl.ackCtr += static_cast<std::uint32_t>(extra.size());
    ch.directory().clear(line);
}

// Parent invalidation fan-out (hParentInv) ----------------------------

void
piAck(ChipCtx &c)
{
    ChipHomeController &ch = c.ch;
    ChipLine &cl = c.cl;
    const Addr line = c.line();
    assert(cl.ackCtr > 0 && "acknowledgment counter underflow");
    if (--cl.ackCtr != 0)
        return;
    stampLocalInvEnd(c);
    answerParentInv(c);
    if (cl.pending != invalidNode) {
        // A local request merged into this fan-out (hChipET crossing):
        // restart it as a plain miss.
        ch.forwardToParent(line, cl.pendingIsWrite);
        cl.state = cl.pendingIsWrite ? ChipState::hFillWrite
                                     : ChipState::hFillRead;
        return;
    }
    cl.state = ChipState::hInvalid;
    ch.replayDeferred(cl);
}

// Chip pointer eviction (hChipET, limited scheme) ---------------------

void
etComplete(ChipCtx &c)
{
    ChipHomeController &ch = c.ch;
    ChipLine &cl = c.cl;
    const Addr line = c.line();
    ch.directory().remove(line, cl.evictVictim);
    cl.evictVictim = invalidNode;
    addLocalPointer(c, cl.pending);
    stampLocalInvEnd(c);
    ch.noteLocalGrant();
    ch.grantRead(cl.pending, line);
    cl.pending = invalidNode;
    ch.replayDeferred(cl);
}

/** Parent INV crossing a chip pointer eviction: widen the fan-out to
 *  every remaining local copy and fall into hParentInv (the waiting
 *  reader restarts as a miss once the parent is answered). */
void
etParentInv(ChipCtx &c)
{
    ChipHomeController &ch = c.ch;
    ChipLine &cl = c.cl;
    const Addr line = c.line();
    ch.noteParentInv();
    std::vector<NodeId> remaining = localSharers(c);
    remaining.erase(std::remove(remaining.begin(), remaining.end(),
                                cl.evictVictim),
                    remaining.end());
    for (NodeId n : remaining)
        ch.sendInvLocal(n, line);
    // The victim's ACKC (for the eviction INV) still counts.
    cl.ackCtr = static_cast<std::uint32_t>(remaining.size()) + 1;
    cl.evictVictim = invalidNode;
    ch.directory().clear(line);
    ch.softwareTable().free(line);
}

// Flow control ---------------------------------------------------------

void
cDefer(ChipCtx &c)
{
    c.ch.deferOrBusy(c.pkt, c.cl);
}

// Row-block builders ---------------------------------------------------

void
addChipDeferRows(ChipTable &t, std::uint8_t state)
{
    t.add(state, Opcode::RREQ, "defer", cDefer, state);
    t.add(state, Opcode::WREQ, "defer", cDefer, state);
}

/** Rows shared by every scheme's chip table. */
void
addChipCoreRows(ChipTable &t)
{
    t.add(hsI, Opcode::RREQ, "i_read", iRead, hsFR);
    t.add(hsI, Opcode::WREQ, "i_write", iWrite, hsFW);
    t.add(hsI, Opcode::INV, "i_spurious_inv", iSpuriousInv, hsI);

    t.add(hsFR, Opcode::RDATA, "fr_fill", frFill, hsC);
    t.add(hsFR, Opcode::BUSY, "fr_busy", fillBusy, hsFR);
    addChipDeferRows(t, hsFR);

    t.add(hsFW, Opcode::WDATA, "fw_fill", fwFill, hsO);
    t.add(hsFW, Opcode::BUSY, "fw_busy", fillBusy, hsFW);
    t.add(hsFW, Opcode::INV, "fw_inv_ack", chipDirEmpty,
          "chip_dir_empty", fwInvAck, hsFW);
    t.add(hsFW, Opcode::INV, "fw_inv_locals", fwInvLocals, hsFWI);
    addChipDeferRows(t, hsFW);

    t.add(hsFWI, Opcode::ACKC, "fwi_ack", fwiAck, dynamicNextState);
    t.add(hsFWI, Opcode::BUSY, "fwi_busy", fillBusy, hsFWI);
    addChipDeferRows(t, hsFWI);

    t.add(hsC, Opcode::INV, "c_parent_inv", cParentInv,
          dynamicNextState);

    t.add(hsO, Opcode::RREQ, "o_recall_read", oRecallRead,
          dynamicNextState);
    t.add(hsO, Opcode::WREQ, "o_recall_write", oRecallWrite,
          dynamicNextState);
    t.add(hsO, Opcode::REPM, "o_owner_replace", oOwnerReplace, hsC);
    t.add(hsO, Opcode::INV, "o_parent_recall", oParentRecall, hsR);

    t.add(hsR, Opcode::UPDATE, "r_update", rUpdate, dynamicNextState);
    t.add(hsR, Opcode::REPM, "r_crossed_replace", rCrossedReplace, hsR);
    // The owner's REPM precedes its ACKC on the in-order local path, so
    // the guard holds; an ACKC before the data is the engine's panic.
    t.add(hsR, Opcode::ACKC, "r_ack_after_data", chipDataSeen,
          "chip_data_seen", rAckAfterData, dynamicNextState);
    t.add(hsR, Opcode::INV, "r_parent_inv", rParentInv, hsR);
    addChipDeferRows(t, hsR);

    t.add(hsWI, Opcode::ACKC, "wi_ack", wiAck, dynamicNextState);
    t.add(hsWI, Opcode::INV, "wi_parent_inv", wiParentInv, hsWI);
    addChipDeferRows(t, hsWI);

    t.add(hsPI, Opcode::ACKC, "pi_ack", piAck, dynamicNextState);
    addChipDeferRows(t, hsPI);
}

/** Chained local caches notify clean replacements (REPC); grant
 *  immediately in every state where the chip tracks a local read copy
 *  or one can still be draining. hInvalid, hFillRead and hRecall get no
 *  row: they are entered only once every local read copy has been
 *  invalidated and acknowledged, and a cache's REPC precedes its ACKC
 *  on the in-order path to the chip home. */
void
addChipRepcRows(ChipTable &t)
{
    t.add(hsC, Opcode::REPC, "c_replace", cReplace, hsC);
    t.add(hsFW, Opcode::REPC, "fw_replace", cReplace, hsFW);
    t.add(hsFWI, Opcode::REPC, "fwi_replace", cReplace, hsFWI);
    t.add(hsWI, Opcode::REPC, "wi_replace", cReplace, hsWI);
    t.add(hsPI, Opcode::REPC, "pi_replace", cReplace, hsPI);
}

} // namespace

const HierPolicy &
fullMapChipPolicy()
{
    static const HierPolicy policy = [] {
        static ChipTable t("full-map", ProtocolKind::fullMap,
                           TableSide::chip, chipSideStateName);
        t.add(hsC, Opcode::RREQ, "c_grant_read", cGrantRead, hsC);
        t.add(hsC, Opcode::WREQ, "c_write", cWriteCore,
              dynamicNextState);
        addChipCoreRows(t);
        t.registerSelf();
        return HierPolicy{&t};
    }();
    return policy;
}

const HierPolicy &
limitedChipPolicy()
{
    static const HierPolicy policy = [] {
        static ChipTable t("limited", ProtocolKind::limited,
                           TableSide::chip, chipSideStateName);
        t.add(hsC, Opcode::RREQ, "c_grant_read", chipDirHasRoom,
              "chip_dir_has_room", cGrantRead, hsC);
        t.add(hsC, Opcode::RREQ, "c_ptr_evict", cPointerEvict, hsET);
        t.add(hsC, Opcode::WREQ, "c_write", cWriteCore,
              dynamicNextState);
        addChipCoreRows(t);
        t.add(hsET, Opcode::ACKC, "et_complete", etComplete, hsC);
        t.add(hsET, Opcode::INV, "et_parent_inv", etParentInv, hsPI);
        addChipDeferRows(t, hsET);
        t.registerSelf();
        return HierPolicy{&t};
    }();
    return policy;
}

const HierPolicy &
limitlessChipPolicy()
{
    static const HierPolicy policy = [] {
        static ChipTable t("limitless", ProtocolKind::limitless,
                           TableSide::chip, chipSideStateName);
        t.add(hsC, Opcode::RREQ, "c_sw_read", chipTrapAlways,
              "chip_trap_always", cSoftwareRead, hsC);
        t.add(hsC, Opcode::RREQ, "c_grant_read", chipDirHasRoom,
              "chip_dir_has_room", cGrantRead, hsC);
        t.add(hsC, Opcode::RREQ, "c_overflow_sw", cReadOverflowSoftware,
              hsC);
        t.add(hsC, Opcode::WREQ, "c_write_gather", chipWriteNeedsTrap,
              "chip_write_needs_trap", cWriteGather, dynamicNextState);
        t.add(hsC, Opcode::WREQ, "c_write", cWriteCore,
              dynamicNextState);
        addChipCoreRows(t);
        t.registerSelf();
        return HierPolicy{&t};
    }();
    return policy;
}

const HierPolicy &
chainedChipPolicy()
{
    static const HierPolicy policy = [] {
        static ChipTable t("chained", ProtocolKind::chained,
                           TableSide::chip, chipSideStateName);
        t.add(hsC, Opcode::RREQ, "c_grant_read", cGrantRead, hsC);
        t.add(hsC, Opcode::WREQ, "c_write", cWriteCore,
              dynamicNextState);
        addChipCoreRows(t);
        addChipRepcRows(t);
        t.registerSelf();
        return HierPolicy{&t};
    }();
    return policy;
}

const HierPolicy &
hierChipPolicyFor(ProtocolKind kind)
{
    switch (kind) {
      case ProtocolKind::fullMap:
        return fullMapChipPolicy();
      case ProtocolKind::limited:
        return limitedChipPolicy();
      case ProtocolKind::limitless:
        return limitlessChipPolicy();
      case ProtocolKind::chained:
        return chainedChipPolicy();
      case ProtocolKind::privateOnly:
        break;
    }
    panic("no chip-home policy for protocol kind %d",
          static_cast<int>(kind));
}

} // namespace home

void
registerAllHierTables()
{
    home::fullMapChipPolicy();
    home::limitedChipPolicy();
    home::limitlessChipPolicy();
    home::chainedChipPolicy();
}

} // namespace limitless
