/**
 * @file
 * Guarded-action transition: the unit of the table-driven protocol
 * engine (after Meunier et al.'s guarded action language — see
 * PAPERS.md). A transition is
 *
 *     { state, opcode, guard, action, next-state }
 *
 * and a protocol (home side or cache side of one directory scheme) is a
 * list of transitions dispatched by (state, opcode) lookup. Several
 * transitions may share a (state, opcode) pair; the first one whose
 * guard holds fires. Guards must be pure (they may be evaluated any
 * number of times and must not change simulation state); all mutation
 * belongs in the action.
 */

#ifndef LIMITLESS_PROTO_TRANSITION_HH
#define LIMITLESS_PROTO_TRANSITION_HH

#include <bitset>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "proto/opcode.hh"

namespace limitless
{

/** Which half of the protocol a table describes. */
enum class TableSide : std::uint8_t
{
    home,  ///< memory-side (directory) controller
    cache, ///< cache-side controller
    chip,  ///< per-chip home controller (two-level mode, src/hier/)
};

const char *tableSideName(TableSide side);

/**
 * Next-state sentinel: the action computes the successor itself (e.g.
 * an ack-counter reaching zero picks Read-Only vs Read-Write). Static
 * next states are applied by the engine after the action runs.
 */
constexpr std::int16_t dynamicNextState = -1;

/**
 * One guarded transition over a context type @p Ctx (the bundle of
 * controller, packet and line handed to guards and actions).
 */
template <typename Ctx>
struct Transition
{
    std::uint8_t state;          ///< current-state index
    Opcode opcode;               ///< triggering packet opcode
    const char *label;           ///< short action mnemonic (static string)
    bool (*guard)(const Ctx &);  ///< nullptr = unconditional
    const char *guardName;       ///< "-" when unconditional
    void (*action)(Ctx &);
    std::int16_t next;           ///< state index, or dynamicNextState
    std::uint16_t id;            ///< table-unique id (assigned by add())
};

/**
 * The (state, opcode) pairs one controller has dispatched, one bit per
 * pair over @p NumStates states and the protocol opcodes (no table
 * declares an interrupt opcode). The coherence monitor cross-checks
 * them against the declared table.
 */
template <std::size_t NumStates>
class ObservedTransitions
{
  public:
    void
    note(std::uint8_t state, Opcode op)
    {
        const auto code = static_cast<std::size_t>(op);
        assert(state < NumStates && code < numProtocolOpcodes);
        _bits[state * numProtocolOpcodes + code] = true;
    }

    /** Call @p fn(state, opcode) once per noted pair, in (state,
     *  opcode) order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < _bits.size(); ++i)
            if (_bits[i])
                fn(static_cast<std::uint8_t>(i / numProtocolOpcodes),
                   static_cast<Opcode>(i % numProtocolOpcodes));
    }

  private:
    std::bitset<NumStates * numProtocolOpcodes> _bits;
};

} // namespace limitless

#endif // LIMITLESS_PROTO_TRANSITION_HH
