/**
 * @file
 * Guards, actions and row-block builders shared by the per-scheme home
 * policy units. Internal to src/mem/home/ — everything here operates on
 * HomeCtx and drives the MemoryController through its public
 * transition-action API only.
 *
 * Naming: guards are predicates over a const context; actions mutate.
 * The add*Rows() builders append the row blocks that are identical
 * across the four pointer-directory schemes (full-map, limited,
 * LimitLESS, private-only) so each scheme file only spells out where it
 * differs: the Read-Only request rows, and private-only's Read-Write
 * rows.
 */

#ifndef LIMITLESS_MEM_HOME_HOME_ACTIONS_HH
#define LIMITLESS_MEM_HOME_HOME_ACTIONS_HH

#include <vector>

#include "mem/home/home_policy.hh"

namespace limitless
{
namespace home
{

/** MemState as table state indices. */
constexpr std::uint8_t stRO =
    static_cast<std::uint8_t>(MemState::readOnly);
constexpr std::uint8_t stRW =
    static_cast<std::uint8_t>(MemState::readWrite);
constexpr std::uint8_t stRT =
    static_cast<std::uint8_t>(MemState::readTransaction);
constexpr std::uint8_t stWT =
    static_cast<std::uint8_t>(MemState::writeTransaction);
constexpr std::uint8_t stET =
    static_cast<std::uint8_t>(MemState::evictTransaction);

// Guards ------------------------------------------------------------

/** The hardware directory can take the requester without overflowing. */
bool dirHasRoom(const HomeCtx &c);
/** RT: the owner's crossed REPM already delivered the data. */
bool dataSeenGuard(const HomeCtx &c);

// Shared actions -----------------------------------------------------

/** RO RREQ, guarded by dirHasRoom where overflow is possible: record
 *  the reader and send the data. */
void grantRead(HomeCtx &c);
/** RO WREQ (hardware path): invalidate every other copy, grant write.
 *  Dynamic next — empty sharer set grants immediately (Transition 2). */
void roWrite(HomeCtx &c);
/** RO WUPD: update-mode write (Section 6) — refresh copies in place. */
void writeUpdate(HomeCtx &c);
/** RO RUNC: uncached read — data, no pointer. */
void uncachedRead(HomeCtx &c);
/** RT ACKC before the data: count it and stay (see rt_finish). */
void staleAck(HomeCtx &c);
/** Park a mid-transaction request (or BUSY it; see MemParams). */
void deferRequest(HomeCtx &c);

void rwRead(HomeCtx &c);
void rwWrite(HomeCtx &c);
/** Private-only: a remote uncached read (RUNC) or write (WUPD) of the
 *  line the home node holds dirty recalls it first. */
void rwUncachedRecall(HomeCtx &c);
void rwWupdRecall(HomeCtx &c);
void rwOwnerReplace(HomeCtx &c);

void rtUpdate(HomeCtx &c);
void rtFinish(HomeCtx &c);
void rtCrossedData(HomeCtx &c);

void wtUpdate(HomeCtx &c);
void wtAck(HomeCtx &c);
void wtCrossedData(HomeCtx &c);

void etComplete(HomeCtx &c);

// Helpers ------------------------------------------------------------

/** Sole owner of an exclusively held line (asserts exactly one). */
NodeId soleOwner(const HomeCtx &c);

/**
 * Common tail of every write path: grant immediately when nobody else
 * holds a copy, otherwise open a Write-Transaction and fan out
 * invalidations. Sets hl.state itself (callers use dynamicNextState).
 */
void startWriteTransaction(HomeCtx &c, NodeId requester,
                           const std::vector<NodeId> &to_inv);

// Row-block builders -------------------------------------------------
//
// A builder declares rows only for opcodes the table's scheme can
// receive (it reads the kind from the table): RUNC rows are
// private-only, REPC defers chained-only. An opcode a scheme's caches
// never send hits the engine's undeclared-transition panic instead of
// a dead row.

/** Transaction states park the requests the scheme's caches send. */
void addDeferRows(HomeTable &t, std::uint8_t state);
/** RO rows shared by the pointer schemes: WUPD (+ RUNC). */
void addRoCommonRows(HomeTable &t);
/** The Read-Write block of the schemes whose lines several caches
 *  share; RREQ/WREQ actions are parameters so the LimitLESS table can
 *  wrap them with Trap-Always profiling. */
void addRwRows(HomeTable &t, void (*rreq_action)(HomeCtx &),
               void (*wreq_action)(HomeCtx &));
void addRtRows(HomeTable &t);
void addWtRows(HomeTable &t);
/** Evict-Transaction block (limited + LimitLESS only). */
void addEtRows(HomeTable &t);

} // namespace home
} // namespace limitless

#endif // LIMITLESS_MEM_HOME_HOME_ACTIONS_HH
