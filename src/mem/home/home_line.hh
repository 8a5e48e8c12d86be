/**
 * @file
 * Per-line home-node bookkeeping shared by every directory scheme: the
 * FSM state, the acknowledgment counter, the pending requester and the
 * transaction-scoped scratch fields the per-scheme policy units
 * manipulate. One HomeLine per touched line, owned by the
 * MemoryController; its parked requests are the home core's.
 */

#ifndef LIMITLESS_MEM_HOME_HOME_LINE_HH
#define LIMITLESS_MEM_HOME_HOME_LINE_HH

#include <cstdint>

#include "mem/home_core.hh"
#include "proto/states.hh"
#include "sim/types.hh"

namespace limitless
{

/** The home side's per-line protocol state. */
struct HomeLine : DeferredRequests
{
    MemState state = MemState::readOnly;
    std::uint32_t ackCtr = 0;
    NodeId pending = invalidNode;
    bool dataSeen = false;        ///< RT: REPM data arrived
    NodeId evictVictim = invalidNode;
    /** Update-mode write in flight: complete with WACK, stay RO. */
    bool updWrite = false;
    std::uint64_t updOld = 0;
    /** WUPD against a dirty line: apply after the owner's data. */
    bool updApply = false;
    unsigned updWord = 0;
    std::uint8_t updKind = 0;
    std::uint64_t updValue = 0;
    /** RUNC in flight: answer without recording a pointer. */
    bool pendingUncached = false;
    /** Chained-walk bookkeeping. */
    NodeId walkTarget = invalidNode;
    NodeId repcRequester = invalidNode;
};

} // namespace limitless

#endif // LIMITLESS_MEM_HOME_HOME_LINE_HH
