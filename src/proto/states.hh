/**
 * @file
 * Protocol state spaces shared by both sides of the coherence protocol.
 *
 * The memory-side (paper Table 1 / Figure 2), cache-side (Table 1) and
 * LimitLESS meta (Table 4) state enums live here, next to the opcode
 * space, so the transition engine, the trace/log/postmortem printers and
 * the table dump all draw on one definition. The name functions are
 * implemented once in proto/names.cc.
 */

#ifndef LIMITLESS_PROTO_STATES_HH
#define LIMITLESS_PROTO_STATES_HH

#include <cstddef>
#include <cstdint>

namespace limitless
{

/** Memory-side line states (paper Table 1). An absent entry is
 *  Read-Only with an empty pointer set (uncached). */
enum class MemState : std::uint8_t
{
    readOnly,         ///< some number of read-only copies (possibly zero)
    readWrite,        ///< exactly one dirty copy
    readTransaction,  ///< holding a read request, update in progress
    writeTransaction, ///< holding a write request, invalidation in progress
    evictTransaction, ///< limited-dir pointer eviction / chained unlink
};

/** Number of MemState values (evictTransaction is the last). */
constexpr std::size_t numMemStates =
    static_cast<std::size_t>(MemState::evictTransaction) + 1;

const char *memStateName(MemState s);

/** Cache-side line states (paper Table 1). */
enum class CacheState : std::uint8_t
{
    invalid,   ///< may not be read or written
    readOnly,  ///< may be read, not written
    readWrite, ///< may be read or written (exclusive, dirty)
};

/** Number of CacheState values (readWrite is the last). */
constexpr std::size_t numCacheStates =
    static_cast<std::size_t>(CacheState::readWrite) + 1;

const char *cacheStateName(CacheState s);

/** Directory meta states (paper Table 4). */
enum class MetaState : std::uint8_t
{
    normal,          ///< handled by hardware
    transInProgress, ///< interlock: BUSY requests, responses to hardware
    trapOnWrite,     ///< trap for WREQ, UPDATE and REPM; reads in hardware
    /** Trap for every request (RREQ, WREQ). Table 4 traps all incoming
     *  packets; the handler would return each response to hardware, so
     *  responses run there directly. */
    trapAlways,
};

const char *metaStateName(MetaState m);

/** memStateName over the transition engine's untyped state index. */
const char *homeStateName(std::uint8_t s);

/** cacheStateName over the transition engine's untyped state index. */
const char *cacheSideStateName(std::uint8_t s);

} // namespace limitless

#endif // LIMITLESS_PROTO_STATES_HH
