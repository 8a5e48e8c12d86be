/**
 * @file
 * Private-only home policy: the no-shared-caching baseline. Only the
 * home node ever caches a line (remote accesses arrive as RUNC / WUPD),
 * so the full-map directory backing it can never overflow. The table
 * is the full-map one less the rows that need a second cacher, plus
 * the uncached-read and write-update rows that dominate it in
 * practice.
 */

#include "mem/home/home_actions.hh"
#include "proto/states.hh"

namespace limitless
{
namespace home
{

const HomePolicy &
privateHomePolicy()
{
    static const HomePolicy policy = [] {
        static HomeTable t("private", ProtocolKind::privateOnly,
                           TableSide::home, homeStateName);
        t.add(stRO, Opcode::RREQ, "ro_grant_read", grantRead, stRO);
        t.add(stRO, Opcode::WREQ, "ro_write", roWrite, dynamicNextState);
        addRoCommonRows(t);
        // The home node is a line's only cacher, so no RREQ or WREQ
        // meets a line it owns: it never re-requests a line it holds
        // dirty, and its REPM precedes any later request on the
        // in-order loopback. Remote reads and writes arrive as RUNC and
        // WUPD and recall the data first.
        t.add(stRW, Opcode::RUNC, "rw_uncached_recall", rwUncachedRecall,
              stRT);
        t.add(stRW, Opcode::WUPD, "rw_wupd_recall", rwWupdRecall, stWT);
        t.add(stRW, Opcode::REPM, "rw_owner_replace", rwOwnerReplace,
              stRO);
        addRtRows(t);
        addWtRows(t);
        t.registerSelf();
        return HomePolicy{&t, nullptr};
    }();
    return policy;
}

} // namespace home
} // namespace limitless
