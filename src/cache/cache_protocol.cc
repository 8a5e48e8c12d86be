/**
 * @file
 * Cache-side transition tables: the cache half of every protocol as
 * guarded actions over CacheCtx (paper Table 1 cache states). The
 * dispatch state is the line's residency state — Invalid covers both
 * "never cached" and "dropped/invalidated" — so spurious-INV tolerance,
 * upgrade WDATA and the chained force-drop fall out as ordinary rows
 * instead of branches.
 *
 * The actions are static members of CacheController (they drive its
 * private transaction map and statistics); this file owns the table
 * composition per scheme.
 */

#include <cassert>

#include "cache/cache_controller.hh"
#include "proto/states.hh"
#include "sim/log.hh"

namespace limitless
{

namespace
{

constexpr std::uint8_t csI =
    static_cast<std::uint8_t>(CacheState::invalid);
constexpr std::uint8_t csRO =
    static_cast<std::uint8_t>(CacheState::readOnly);
constexpr std::uint8_t csRW =
    static_cast<std::uint8_t>(CacheState::readWrite);

/** INVs name the home in operand 1 (handler-forwarded INVs keep their
 *  IPI source in src); fall back to src for direct hardware INVs. */
NodeId
invHome(const Packet &pkt)
{
    return pkt.operands.size() > 1
               ? static_cast<NodeId>(pkt.operands[1])
               : pkt.src;
}

} // namespace

// --------------------------------------------------------------------
// Guards
// --------------------------------------------------------------------

bool
CacheController::txnUncached(const CacheCtx &c)
{
    auto it = c.cc._txns.find(c.pkt->addr());
    return it != c.cc._txns.end() && it->second.uncachedRead;
}

// --------------------------------------------------------------------
// Fill / completion actions
// --------------------------------------------------------------------

void
CacheController::rdataUncached(CacheCtx &c)
{
    // Private-only: complete the load straight from the packet; nothing
    // is installed.
    CacheController &cc = c.cc;
    const Addr line = c.pkt->addr();
    auto it = cc._txns.find(line);
    assert(it != cc._txns.end());
    assert(!it->second.forWrite);
    assert(c.pkt->data.size() >= cc._amap.wordsPerLine());
    Txn txn = std::move(it->second);
    cc._txns.erase(it);
    const std::uint64_t value = c.pkt->data[cc._amap.wordOf(txn.op.addr)];
    cc.finish(std::move(txn), value);
    cc.drainWaiting();
}

void
CacheController::rdataInstall(CacheCtx &c)
{
    CacheController &cc = c.cc;
    const Addr line = c.pkt->addr();
    auto it = cc._txns.find(line);
    if (it == cc._txns.end())
        panic("node %u: RDATA for line %#llx with no transaction",
              cc._self, (unsigned long long)line);
    assert(!it->second.forWrite);
    assert(c.pkt->data.size() >= cc._amap.wordsPerLine());
    CacheLine &cl = cc._array.install(line, CacheState::readOnly,
                                      c.pkt->data.data(),
                                      cc._amap.wordsPerLine());
    if (cc._protocol == ProtocolKind::chained &&
        c.pkt->operands.size() > 1)
        cl.chainNext = static_cast<NodeId>(c.pkt->operands[1]);
    c.cl = &cl;
    cc.completeTxn(line, cl);
}

void
CacheController::wdataInstall(CacheCtx &c)
{
    CacheController &cc = c.cc;
    const Addr line = c.pkt->addr();
    auto it = cc._txns.find(line);
    if (it == cc._txns.end())
        panic("node %u: WDATA for line %#llx with no transaction",
              cc._self, (unsigned long long)line);
    assert(it->second.forWrite);
    assert(c.pkt->data.size() >= cc._amap.wordsPerLine());
    CacheLine &cl = cc._array.install(line, CacheState::readWrite,
                                      c.pkt->data.data(),
                                      cc._amap.wordsPerLine());
    c.cl = &cl;
    cc.completeTxn(line, cl);
}

void
CacheController::wackComplete(CacheCtx &c)
{
    // Update-mode write performed at the home; the old word value rides
    // in operand 1. Any resident read-only copy stays (MUPD refreshed
    // it), so the line's state is untouched.
    CacheController &cc = c.cc;
    const Addr line = c.pkt->addr();
    auto it = cc._txns.find(line);
    if (it == cc._txns.end())
        panic("node %u: WACK for line %#llx with no transaction",
              cc._self, (unsigned long long)line);
    assert(it->second.updateWrite);
    Txn txn = std::move(it->second);
    cc._txns.erase(it);
    cc.finish(std::move(txn), c.pkt->operands.at(1));
    cc.drainWaiting();
}

// --------------------------------------------------------------------
// Invalidation / refresh actions
// --------------------------------------------------------------------

void
CacheController::invSpurious(CacheCtx &c)
{
    // Stale directory pointer (we dropped the copy silently) or a
    // crossing with our own REPM; acknowledge regardless.
    CacheController &cc = c.cc;
    cc.noteInvReceived(*c.pkt);
    cc._statSpuriousInvs += 1;
    cc.sendAck(invHome(*c.pkt), c.pkt->addr(), invalidNode, c.pkt.get());
}

void
CacheController::invCleanAck(CacheCtx &c)
{
    // Clean copy: acknowledge; in chained mode the ack carries our chain
    // successor so the home can continue the sequential walk.
    CacheController &cc = c.cc;
    cc.noteInvReceived(*c.pkt);
    const NodeId next = c.cl->chainNext;
    c.cl->chainNext = invalidNode;
    cc.sendAck(invHome(*c.pkt), c.pkt->addr(), next, c.pkt.get());
}

void
CacheController::invWriteback(CacheCtx &c)
{
    // Dirty copy: return the data (paper transition 8/10 input).
    CacheController &cc = c.cc;
    cc.noteInvReceived(*c.pkt);
    const Addr line = c.pkt->addr();
    auto upd = makeDataPacket(cc._self, invHome(*c.pkt), Opcode::UPDATE,
                              line, c.cl->words.data(),
                              cc._amap.wordsPerLine());
    // The writeback answers the INV: carry its transaction tags so the
    // ack leg nests under the per-sharer invalidation span.
    upd->txnId = c.pkt->txnId;
    upd->causeSpan = c.pkt->causeSpan;
    cc._send(std::move(upd));
}

void
CacheController::mupdRefresh(CacheCtx &c)
{
    // Refresh a cached copy of an update-mode line in place.
    CacheController &cc = c.cc;
    for (unsigned w = 0; w < cc._amap.wordsPerLine(); ++w)
        c.cl->words[w] = c.pkt->data[w];
    cc.sendAck(c.pkt->src, c.pkt->addr(), invalidNode, c.pkt.get());
}

void
CacheController::mupdSpurious(CacheCtx &c)
{
    CacheController &cc = c.cc;
    cc._statSpuriousInvs += 1;
    cc.sendAck(c.pkt->src, c.pkt->addr(), invalidNode, c.pkt.get());
}

// --------------------------------------------------------------------
// Flow-control actions
// --------------------------------------------------------------------

void
CacheController::busyRetry(CacheCtx &c)
{
    c.cc.handleBusy(*c.pkt);
}

void
CacheController::repcResume(CacheCtx &c)
{
    // Find the transaction whose eviction this grant unblocks.
    CacheController &cc = c.cc;
    const Addr victim = c.pkt->addr();
    for (auto &[line, txn] : cc._txns) {
        if (txn.awaitingRepc && txn.repcLine == victim) {
            txn.awaitingRepc = false;
            // The chain walk normally invalidated our copy already;
            // force-drop in case the walk found the chain empty.
            if (c.cl)
                c.cl->state = CacheState::invalid;
            cc.startRequest(line, txn);
            return;
        }
    }
    panic("node %u: REPC_ACK for line %#llx with no waiting txn",
          cc._self, (unsigned long long)victim);
}

// --------------------------------------------------------------------
// Table composition
// --------------------------------------------------------------------

using CacheTable = TransitionTable<CacheCtx>;

const TransitionTable<CacheCtx> &
CacheController::tableFor(ProtocolKind kind)
{
    // Row builders live in member scope so they can name the private
    // static actions.

    /** Rows shared by every scheme: fills, invalidations, BUSY retry.
     *  A private-only read copy is the home node's alone, and a home
     *  invalidates only the other sharers of a write or an owner, so
     *  that table has no Read-Only INV row. */
    static constexpr auto addCacheCoreRows = [](CacheTable &t) {
        t.add(csI, Opcode::RDATA, "install_ro", rdataInstall, csRO);
        t.add(csI, Opcode::WDATA, "install_rw", wdataInstall, csRW);
        t.add(csRO, Opcode::WDATA, "upgrade_rw", wdataInstall, csRW);
        t.add(csI, Opcode::INV, "inv_spurious", invSpurious, csI);
        if (t.info().kind != ProtocolKind::privateOnly)
            t.add(csRO, Opcode::INV, "inv_clean_ack", invCleanAck, csI);
        t.add(csRW, Opcode::INV, "inv_writeback", invWriteback, csI);
        t.add(csI, Opcode::BUSY, "busy_retry", busyRetry, csI);
        t.add(csRO, Opcode::BUSY, "busy_retry", busyRetry, csRO);
    };

    /** Update-mode rows (WUPD-capable schemes: all pointer schemes). */
    static constexpr auto addUpdateModeRows = [](CacheTable &t) {
        t.add(csRO, Opcode::MUPD, "mupd_refresh", mupdRefresh, csRO);
        t.add(csI, Opcode::MUPD, "mupd_spurious", mupdSpurious, csI);
        t.add(csI, Opcode::WACK, "wack_complete", wackComplete, csI);
        t.add(csRO, Opcode::WACK, "wack_complete", wackComplete, csRO);
    };

    switch (kind) {
      case ProtocolKind::fullMap: {
        static const CacheTable &t = [] () -> const CacheTable & {
            static CacheTable t("full-map", ProtocolKind::fullMap,
                                TableSide::cache, cacheSideStateName);
            addCacheCoreRows(t);
            addUpdateModeRows(t);
            t.registerSelf();
            return t;
        }();
        return t;
      }
      case ProtocolKind::limited: {
        static const CacheTable &t = [] () -> const CacheTable & {
            static CacheTable t("limited", ProtocolKind::limited,
                                TableSide::cache, cacheSideStateName);
            addCacheCoreRows(t);
            addUpdateModeRows(t);
            t.registerSelf();
            return t;
        }();
        return t;
      }
      case ProtocolKind::limitless: {
        static const CacheTable &t = [] () -> const CacheTable & {
            static CacheTable t("limitless", ProtocolKind::limitless,
                                TableSide::cache, cacheSideStateName);
            addCacheCoreRows(t);
            addUpdateModeRows(t);
            t.registerSelf();
            return t;
        }();
        return t;
      }
      case ProtocolKind::chained: {
        static const CacheTable &t = [] () -> const CacheTable & {
            static CacheTable t("chained", ProtocolKind::chained,
                                TableSide::cache, cacheSideStateName);
            addCacheCoreRows(t);
            // Chained replacement grant: resume the parked request. The
            // walk usually invalidated our copy already (Invalid row);
            // the Read-Only row force-drops it when the chain was found
            // empty.
            t.add(csI, Opcode::REPC_ACK, "repc_resume", repcResume, csI);
            t.add(csRO, Opcode::REPC_ACK, "repc_resume", repcResume,
                  csI);
            t.registerSelf();
            return t;
        }();
        return t;
      }
      case ProtocolKind::privateOnly: {
        static const CacheTable &t = [] () -> const CacheTable & {
            static CacheTable t("private", ProtocolKind::privateOnly,
                                TableSide::cache, cacheSideStateName);
            // Uncached remote read completes without an install; the
            // guard keeps local fills on the ordinary install row.
            t.add(csI, Opcode::RDATA, "uncached_done", txnUncached,
                  "txn_uncached", rdataUncached, csI);
            addCacheCoreRows(t);
            addUpdateModeRows(t);
            t.registerSelf();
            return t;
        }();
        return t;
      }
    }
    panic("unknown protocol kind %d", static_cast<int>(kind));
}

} // namespace limitless
