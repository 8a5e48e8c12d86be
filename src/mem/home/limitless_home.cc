/**
 * @file
 * LimitLESS home policy (paper Sections 3–4): hardware pointer rows
 * identical to the limited scheme until overflow, then software.
 *
 * Two emulation modes share one table. In stall-approximation mode (the
 * paper's evaluation methodology, Section 5.1) the overflow rows emulate
 * the trap inline and charge Ts cycles; in full-emulation mode the
 * preDispatch hook implements the meta-state machine of paper Table 4 —
 * Trans-In-Progress interlocks, Trap-On-Write, Trap-Always — and diverts
 * trapped packets through the IPI interface to the software handler in
 * src/kernel/limitless_handler.cc, which re-enters the hardware path via
 * processBypassingMeta(). Both modes run the same software: the spill
 * and the write gather are the home core's.
 */

#include <cassert>

#include "directory/limitless_dir.hh"
#include "machine/coherence_policy.hh"
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

/** Stall-approximation Trap-Always ablation: once a line has been
 *  demoted to software, every access traps. */
bool
trapAlwaysInline(const HomeCtx &c)
{
    return c.mc.protocol().limitlessMode == LimitlessMode::stallApprox &&
           c.mc.limitlessDir()->meta(c.line()) == MetaState::trapAlways;
}

/** The line has software-extended state a write must gather. */
bool
writeNeedsTrap(const HomeCtx &c)
{
    return c.mc.softwareTable().has(c.line()) ||
           c.mc.limitlessDir()->meta(c.line()) != MetaState::normal;
}

bool
stallApproxMode(const HomeCtx &c)
{
    return c.mc.protocol().limitlessMode == LimitlessMode::stallApprox;
}

// Actions ------------------------------------------------------------

/** Trap-Always read, emulated inline: software records the reader. */
void
roSoftwareRead(HomeCtx &c)
{
    const Addr line = c.line();
    const NodeId src = c.src();
    c.mc.noteRead();
    c.mc.softwareTable().addSharer(line, src);
    c.mc.profileTable().addSharer(line, src);
    c.mc.noteReadTrapTaken();
    c.mc.chargeTrap(c.mc.protocol().softwareLatency, src, line);
    c.mc.sendReadData(src, line);
}

/**
 * Pointer-overflow read, stall approximation: spill the hardware
 * pointers into the software table (or FIFO-evict on migratory lines)
 * and charge Ts.
 */
void
roReadOverflowSoftware(HomeCtx &c)
{
    MemoryController &mc = c.mc;
    LimitlessDir *ldir = mc.limitlessDir();
    const Addr line = c.line();
    const NodeId src = c.src();
    mc.noteRead();
    // The failed tryAdd records the ptr_overflow trace event, exactly as
    // the pre-table control flow did.
    const DirAdd r = mc.directory().tryAdd(line, src);
    assert(r == DirAdd::overflow && "guard admitted a non-overflow");
    (void)r;

    // Migratory lines (Section 6): evict the oldest pointer FIFO instead
    // of spilling a bit vector — the worker-set is about to move on
    // anyway, so a full map would be stale the moment it was allocated.
    // The stall approximation alone does this; the full-emulation
    // handler spills such a line like any other.
    if (mc.coherencePolicy() && mc.coherencePolicy()->isMigratory(line)) {
        std::vector<NodeId> hw;
        ldir->sharers(line, hw);
        assert(!hw.empty());
        // Oldest remote pointer (slot 0; sharers() lists the local bit
        // first when set, and the local copy is never the right victim
        // for migrating data).
        NodeId victim = hw[0];
        if (victim == mc.nodeId() && hw.size() > 1)
            victim = hw[1];
        mc.noteMigratoryEviction();
        mc.chargeTrap(mc.protocol().softwareLatency, src, line);
        c.hl.state = MemState::evictTransaction;
        c.hl.evictVictim = victim;
        c.hl.pending = src;
        mc.sendInv(victim, line);
        return;
    }

    std::vector<NodeId> spilled;
    const MetaState meta = mc.spillOverflow(line, src, spilled);
    mc.noteReadTrapTaken();
    mc.chargeTrap(mc.protocol().softwareLatency, src, line);
    ldir->setMeta(line, meta);
    mc.sendReadData(src, line);
}

/** Pointer-overflow read, full emulation: interlock and divert. */
void
roReadOverflowDivert(HomeCtx &c)
{
    MemoryController &mc = c.mc;
    const Addr line = c.line();
    const NodeId src = c.src();
    mc.noteRead();
    const DirAdd r = mc.directory().tryAdd(line, src);
    assert(r == DirAdd::overflow && "guard admitted a non-overflow");
    (void)r;
    assert(!c.bypassMeta && "trap handler must not overflow the pointers");
    mc.limitlessDir()->setMeta(line, MetaState::transInProgress);
    mc.divertToHandler(std::move(c.pkt));
}

/** Software write-gather, emulated inline (stall approximation). */
void
roWriteGather(HomeCtx &c)
{
    MemoryController &mc = c.mc;
    LimitlessDir *ldir = mc.limitlessDir();
    const Addr line = c.line();
    const NodeId src = c.src();
    mc.noteWrite();

    // Trap-Always lines stay software-handled (profiling / ablation D1)
    // and keep accumulating their access profile across writes.
    const bool sticky = ldir->meta(line) == MetaState::trapAlways;
    std::vector<NodeId> others;
    mc.gatherWrite(line, src, sticky, others);
    ldir->setMeta(line,
                  sticky ? MetaState::trapAlways : MetaState::normal);

    mc.noteWriteTrapTaken();
    mc.chargeTrap(mc.protocol().softwareLatency, src, line);
    startWriteTransaction(c, src, others);
}

/**
 * Trap-Always lines are software-handled even when exclusively owned:
 * the request still goes through the normal ownership transfer, but the
 * access is recorded and charged Ts (stall-approximation path; full
 * emulation diverts before the FSM).
 */
void
profileTrapAlways(HomeCtx &c)
{
    if (!trapAlwaysInline(c))
        return;
    c.mc.profileTable().addSharer(c.line(), c.src());
    c.mc.noteReadTrapTaken();
    c.mc.chargeTrap(c.mc.protocol().softwareLatency, c.src(), c.line());
}

void
rwReadProfiled(HomeCtx &c)
{
    profileTrapAlways(c);
    rwRead(c);
}

void
rwWriteProfiled(HomeCtx &c)
{
    profileTrapAlways(c);
    rwWrite(c);
}

// Full-emulation meta-state machine ----------------------------------

/**
 * Paper Table 4, run before the FSM proper: Trans-In-Progress lines
 * interlock (BUSY) their requests; Trap-On-Write writes and evictions
 * and Trap-Always requests are diverted to the software handler.
 * Returns true when the packet was consumed. The stall approximation
 * emulates traps inline and never leaves Normal-mode processing
 * windows.
 *
 * Trap-Always traps requests only, as the inline rows do: the handler
 * hands every response back to hardware anyway. For the same reason a
 * response that meets the interlock runs in the hardware table — the
 * handler writes the line's directory state when the trap starts, and
 * only its outgoing packets wait for the trap to return.
 */
bool
limitlessPreDispatch(HomeCtx &c)
{
    MemoryController &mc = c.mc;
    LimitlessDir *ldir = mc.limitlessDir();
    if (!ldir || c.bypassMeta ||
        mc.protocol().limitlessMode != LimitlessMode::fullEmulation)
        return false;
    const Addr line = c.line();
    const Opcode op = c.pkt->opcode;
    const MetaState meta = ldir->meta(line);
    if (meta == MetaState::transInProgress) {
        if (!opcodeIsHomeRequest(op))
            return false;
        mc.sendBusy(c.src(), line);
        return true;
    }
    const bool trap_write =
        meta == MetaState::trapOnWrite &&
        (op == Opcode::WREQ || op == Opcode::UPDATE ||
         op == Opcode::REPM);
    const bool trap_always =
        meta == MetaState::trapAlways &&
        (op == Opcode::RREQ || op == Opcode::WREQ);
    if (trap_always || trap_write) {
        if (op == Opcode::WREQ)
            mc.noteWrite();
        else if (op == Opcode::RREQ)
            mc.noteRead();
        ldir->setMeta(line, MetaState::transInProgress);
        mc.divertToHandler(std::move(c.pkt));
        return true;
    }
    return false;
}

} // namespace

const HomePolicy &
limitlessHomePolicy()
{
    static const HomePolicy policy = [] {
        static HomeTable t("limitless", ProtocolKind::limitless,
                           TableSide::home, homeStateName);
        t.add(stRO, Opcode::RREQ, "ro_sw_read", trapAlwaysInline,
              "trap_always_inline", roSoftwareRead, stRO);
        t.add(stRO, Opcode::RREQ, "ro_grant_read", dirHasRoom,
              "dir_has_room", grantRead, stRO);
        t.add(stRO, Opcode::RREQ, "ro_overflow_sw", stallApproxMode,
              "stall_approx", roReadOverflowSoftware, dynamicNextState);
        t.add(stRO, Opcode::RREQ, "ro_overflow_trap",
              roReadOverflowDivert, dynamicNextState);
        t.add(stRO, Opcode::WREQ, "ro_write_gather", writeNeedsTrap,
              "write_needs_trap", roWriteGather, dynamicNextState);
        t.add(stRO, Opcode::WREQ, "ro_write", roWrite, dynamicNextState);
        addRoCommonRows(t);
        addRwRows(t, rwReadProfiled, rwWriteProfiled);
        addRtRows(t);
        addWtRows(t);
        addEtRows(t);
        t.registerSelf();
        return HomePolicy{&t, limitlessPreDispatch};
    }();
    return policy;
}

} // namespace home
} // namespace limitless
