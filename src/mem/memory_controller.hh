/**
 * @file
 * Memory-side coherence controller: the global home directory, built
 * on the home core (src/mem/home_core.hh) that also runs the chip homes
 * of the two-level mode, behind the per-scheme policy units in
 * src/mem/home/.
 *
 * One controller per node; it owns the node's slice of globally shared
 * memory (real data words) and the directory entries for lines homed
 * there. Incoming protocol packets are serviced one at a time with a
 * configurable occupancy, which is what makes widely shared lines into
 * hot spots.
 *
 * All protocol behavior lives in the guarded-action transition tables
 * of src/mem/home/{full_map,limited,limitless,chained,private}_home.cc
 * (see src/proto/protocol_table.hh); process() is a single table
 * dispatch. The transition actions drive this class exclusively through
 * its public transition-action API below and the core's.
 *
 * LimitLESS support: in stall-approximation mode (the paper's evaluation
 * methodology) pointer overflows are emulated inline and charged Ts
 * cycles to both the controller and the home processor. In
 * full-emulation mode overflowed packets are diverted through the IPI
 * interface to a software trap handler (src/kernel/limitless_handler.hh)
 * which manipulates this controller through the software-access methods
 * at the bottom of the class — the "complete access to coherence-related
 * controller state" of paper Section 4.1.
 */

#ifndef LIMITLESS_MEM_MEMORY_CONTROLLER_HH
#define LIMITLESS_MEM_MEMORY_CONTROLLER_HH

#include <functional>
#include <iosfwd>
#include <memory>

#include "cache/mem_op.hh"
#include "directory/chained_dir.hh"
#include "machine/coherence_policy.hh"
#include "mem/home/home_line.hh"
#include "mem/home_core.hh"
#include "proto/states.hh"

namespace limitless
{

namespace home
{
struct HomePolicy;
} // namespace home

/** The per-node memory + directory controller (the global home). */
class MemoryController : public HomeCore
{
  public:
    /** Divert a packet to the IPI input queue (full emulation). */
    using DivertFn = std::function<void(PacketPtr)>;

    MemoryController(EventQueue &eq, NodeId self, const AddressMap &amap,
                     const ProtocolParams &proto, const MemParams &params);

    void setPolicy(const CoherencePolicy *policy) { _policy = policy; }
    const CoherencePolicy *coherencePolicy() const { return _policy; }
    void setDivert(DivertFn fn) { _divert = std::move(fn); }

    std::size_t workerSetSize(Addr line) const override;

    // ------------------------------------------------------------------
    // Transition-action API: the per-scheme policy units in
    // src/mem/home/ drive the controller through these and the core's.
    // ------------------------------------------------------------------

    /** Per-line protocol bookkeeping (created on first touch). */
    HomeLine &lineFor(Addr line) { return _lines[line]; }

    /** Mutable memory words of a line (zero-filled on first touch). */
    LineWords &lineWords(Addr line) { return _memory[line]; }

    void sendReadData(NodeId to, Addr line, NodeId old_head = invalidNode);
    void sendWriteData(NodeId to, Addr line);

    /** Hand a packet to the software trap handler (full emulation). */
    void divertToHandler(PacketPtr pkt);

    /**
     * The LimitLESS write-gather software (paper §4.4), for both
     * emulation modes: collect the line's worker set (hardware pointers
     * plus software vector), record the worker-set statistic and, on a
     * @p sticky (Trap-Always) line, the access profile; free the
     * vector, clear the pointers and admit @p writer as the sole
     * pointer. Appends every sharer but @p writer to @p others (the
     * copies to invalidate) and returns the worker set's size. The
     * caller writes the meta state and starts the write transaction.
     */
    std::size_t gatherWrite(Addr line, NodeId writer, bool sticky,
                            std::vector<NodeId> &others);

    /** @name Statistics hooks for transition actions. */
    /// @{
    void noteWriteUpdate() { _statWriteUpdates += 1; }
    void noteMigratoryEviction() { _statMigratoryEvictions += 1; }
    /// @}

    // ------------------------------------------------------------------
    // Software / monitor access ("the directories are placed in a special
    // region of memory that may be read and written by the processor").
    // ------------------------------------------------------------------

    ChainedDir *chainedDir() { return _chained.get(); }

    /**
     * Cumulative access records for Trap-Always lines (the Section 6
     * profiling extension): unlike the coherence-tracking softwareTable,
     * entries here survive write-gathers, so the profile reflects every
     * processor that ever touched the line.
     */
    SoftwareDirTable &profileTable() { return _profile; }
    const SoftwareDirTable &profileTable() const { return _profile; }

    MemState
    lineState(Addr line) const
    {
        const HomeLine *hl = _lines.find(line);
        return hl ? hl->state : MemState::readOnly;
    }
    void setLineState(Addr line, MemState s) { lineFor(line).state = s; }

    std::uint32_t
    ackCounter(Addr line) const
    {
        const HomeLine *hl = _lines.find(line);
        return hl ? hl->ackCtr : 0;
    }
    void setAckCounter(Addr line, std::uint32_t n)
    {
        lineFor(line).ackCtr = n;
    }

    NodeId
    pendingRequester(Addr line) const
    {
        const HomeLine *hl = _lines.find(line);
        return hl ? hl->pending : invalidNode;
    }
    void setPendingRequester(Addr line, NodeId n)
    {
        lineFor(line).pending = n;
    }

    /** Current memory contents of a line (zero-filled on first touch). */
    const LineWords &readLine(Addr line) { return lineWords(line); }
    void writeLine(Addr line, const std::vector<std::uint64_t> &words);

    /** Trap-accounting hooks so overflowFraction() covers both modes. */
    void noteReadTrap(Tick cycles);
    void noteWriteTrap(Tick cycles);
    void noteInvSent() { _statInvsSent += 1; }
    void noteWorkerSet(std::size_t n) { _statWorkerSet.sample(n); }

    /**
     * Process a packet directly, bypassing meta-state checks: used by
     * trap handlers that tap a packet (e.g. the profiler) and then let
     * the hardware path do the actual protocol work.
     */
    void processBypassingMeta(PacketPtr pkt);

    /**
     * Serialize the controller's protocol-relevant state (per-line FSM
     * + scratch fields, deferred packets, directory / software-vector /
     * chain contents, memory words) in a deterministic text form. The
     * model checker fingerprints machine states with this; ticks and
     * statistics are deliberately excluded — see docs/CHECKER.md.
     */
    void checkpoint(std::ostream &os) const;

    /** Iterate touched lines (coherence-monitor support). */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (const auto &[line, st] : _lines)
            fn(line, st.state);
    }

  private:
    void process(PacketPtr &pkt) override { fire(pkt, false); }
    std::uint8_t
    stateOf(Addr line) const override
    {
        return static_cast<std::uint8_t>(lineState(line));
    }
    NodeId pendingOf(Addr line) const override
    {
        return pendingRequester(line);
    }
    bool homes(Addr line) const override
    {
        return _amap.homeOf(line) == _self;
    }
    void fire(PacketPtr &pkt, bool bypass_meta);

    DivertFn _divert;
    const CoherencePolicy *_policy = nullptr;
    const home::HomePolicy *_homePolicy = nullptr;

    std::unique_ptr<ChainedDir> _chained; ///< chained protocol only
    SoftwareDirTable _profile;

    LineMap<HomeLine> _lines;
    LineMap<LineWords> _memory;

    Counter &_statWriteUpdates;
    Counter &_statMigratoryEvictions;
    Distribution &_statWorkerSet;
};

} // namespace limitless

#endif // LIMITLESS_MEM_MEMORY_CONTROLLER_HH
