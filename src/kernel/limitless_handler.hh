/**
 * @file
 * The LimitLESS trap handler (paper Section 4.4), run "in software" on
 * the home node's processor in full-emulation mode.
 *
 * On a pointer-array overflow the memory controller diverts the packet
 * into the IPI input queue and interrupts the processor; this handler
 * then emulates a full-map directory: it keeps a hash table of bit
 * vectors in local memory (SoftwareDirTable), empties the hardware
 * pointers into the vector, and leaves the entry in Trap-On-Write mode so
 * the controller keeps servicing reads in hardware. A trapped write
 * gathers the full sharer set, posts the invalidations, sets up the
 * hardware Write-Transaction state, and returns the line to hardware
 * control.
 *
 * The directory half of that software — the spill and the gather — is
 * the home core's (HomeCore::spillOverflow, MemoryController::
 * gatherWrite), shared with the stall approximation's inline rows and
 * the chip homes. What stays here is what full emulation does
 * differently: the cost is summed from KernelCosts, the meta state is
 * restored when the trap returns, and packets leave as one IPI batch.
 *
 * The trap dispatcher charges the handler's occupancy to the processor
 * via stallFor(), so the application threads on the home node really do
 * slow down — the effect behind the paper's Ts=25 "back-off" anomaly in
 * Figure 9.
 */

#ifndef LIMITLESS_KERNEL_LIMITLESS_HANDLER_HH
#define LIMITLESS_KERNEL_LIMITLESS_HANDLER_HH

#include <vector>

#include "kernel/kernel_costs.hh"
#include "mem/memory_controller.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace limitless
{

/** Software side of the LimitLESS directory. */
class LimitlessHandler
{
  public:
    LimitlessHandler(EventQueue &eq, MemoryController &mc,
                     KernelCosts costs = {});

    /**
     * Handle one diverted protocol packet.
     * @return handler occupancy in cycles; appends the packets the
     *         handler launches (via IPI) to @p out and reports the meta
     *         state to restore through @p restore_meta. The caller (the
     *         trap dispatcher) applies both when the occupancy elapses,
     *         then calls finishLine().
     */
    Tick handlePacket(const Packet &pkt, std::vector<PacketPtr> &out,
                      MetaState &restore_meta);

    /** Clear the Trans-In-Progress interlock when the trap returns. */
    void finishLine(Addr line, MetaState restore_meta);

    StatSet &stats() { return _stats; }

  private:
    Tick handleReadOverflow(const Packet &pkt, std::vector<PacketPtr> &out,
                            MetaState &restore_meta);
    Tick handleSoftwareRead(const Packet &pkt, std::vector<PacketPtr> &out,
                            MetaState &restore_meta);
    Tick handleWrite(const Packet &pkt, std::vector<PacketPtr> &out,
                     MetaState &restore_meta);

    PacketPtr buildData(Opcode op, NodeId to, Addr line);
    PacketPtr buildInv(NodeId to, Addr line);

    EventQueue &_eq;
    MemoryController &_mc;
    KernelCosts _costs;

    StatSet _stats{"handler"};
    Counter &_statTraps;
    Counter &_statReadTraps;
    Counter &_statWriteTraps;
    Counter &_statCycles;
    Counter &_statInvsSent;
    Accumulator &_statTrapCost;
};

} // namespace limitless

#endif // LIMITLESS_KERNEL_LIMITLESS_HANDLER_HH
