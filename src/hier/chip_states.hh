/**
 * @file
 * Chip-home (per-chip directory) line states for the two-level mode.
 *
 * The chip home sits between a chip's caches and the global home: it is
 * a *cache of the chip's sharing state* — toward its local caches it
 * behaves like a home directory, toward the global home it behaves like
 * a single cache (so the unmodified global tables naturally track one
 * pointer per sharing chip). Its stable states therefore mirror the
 * cache side (invalid / read-shared / exclusively owned) and its
 * transients mirror the home side's transactions, with extra crossing
 * states for invalidations that arrive from *both* directions at once.
 * See docs/HIERARCHY.md for the full walk-through.
 */

#ifndef LIMITLESS_HIER_CHIP_STATES_HH
#define LIMITLESS_HIER_CHIP_STATES_HH

#include <cstddef>
#include <cstdint>

namespace limitless
{

/** Chip-home per-line states (two-level mode). */
enum class ChipState : std::uint8_t
{
    hInvalid,  ///< chip holds no copy
    hCopy,     ///< chip holds data read-shared; local readers tracked
               ///< in the chip directory (possibly zero — the chip
               ///< copy is sticky and never evicted)
    hOwned,    ///< one local cache holds the line read-write; the chip
               ///< is the exclusive owner at the global level
    hFillRead, ///< RREQ forwarded to the global home, reply pending
    hFillWrite,    ///< WREQ forwarded to the global home, reply pending
    hFillWriteInv, ///< parent INV crossed our WREQ: invalidating the
                   ///< kept local copies before acking the parent
    hWriteInv, ///< local write: invalidating the chip's other readers
    hRecall,   ///< recalling the local owner's dirty data (local
               ///< request or parent invalidation)
    hParentInv, ///< parent INV in hCopy: invalidating local readers
    hChipET,   ///< chip directory full on a local read: evicting one
               ///< local pointer (limited/LimitLESS chip directories)
};

/** Number of ChipState values (hChipET is the last). */
constexpr std::size_t numChipStates =
    static_cast<std::size_t>(ChipState::hChipET) + 1;

const char *chipStateName(ChipState s);

/** chipStateName over the transition engine's untyped state index. */
const char *chipSideStateName(std::uint8_t s);

} // namespace limitless

#endif // LIMITLESS_HIER_CHIP_STATES_HH
