/**
 * @file
 * One Alewife processing node: SPARCLE processor, direct-mapped cache,
 * a slice of globally shared memory with its directory, and the IPI
 * network interface (paper Figure 1).
 */

#ifndef LIMITLESS_MACHINE_NODE_HH
#define LIMITLESS_MACHINE_NODE_HH

#include <memory>
#include <string_view>

#include "cache/cache_controller.hh"
#include "hier/chip_home.hh"
#include "ipi/ipi_interface.hh"
#include "kernel/limitless_handler.hh"
#include "kernel/trap_dispatcher.hh"
#include "machine/machine_config.hh"
#include "mem/memory_controller.hh"
#include "network/network.hh"
#include "proc/processor.hh"

namespace limitless
{

/** A processing node and its internal wiring. */
class Node
{
  public:
    Node(EventQueue &eq, NodeId id, const AddressMap &amap,
         const MachineConfig &cfg, Network &net,
         const CoherencePolicy &policy);

    NodeId id() const { return _id; }
    Processor &processor() { return *_proc; }
    CacheController &cache() { return *_cache; }
    MemoryController &mem() { return *_mem; }
    IpiInterface &ipi() { return *_ipi; }
    /** Non-null only for LimitLESS full-emulation machines. */
    LimitlessHandler *handler() { return _handler.get(); }
    /** Non-null only in two-level (--hier) machines. */
    ChipHomeController *chipHome() { return _chip.get(); }
    const ChipHomeController *chipHome() const { return _chip.get(); }

    /** Software interrupt dispatch: protocol traps + active messages. */
    TrapDispatcher &dispatcher() { return *_dispatcher; }

    const Processor &processor() const { return *_proc; }
    const CacheController &cache() const { return *_cache; }
    const MemoryController &mem() const { return *_mem; }
    const IpiInterface &ipi() const { return *_ipi; }

    /** Outbound path used by every on-node component. */
    void sendFrom(PacketPtr pkt);

    /** Inbound dispatch (network receiver + local loopback). */
    void deliver(PacketPtr pkt);

    /** Look up one of this node's stat sets by component name
     *  ("proc", "cache", "mem", "ipi", "handler"); nullptr if unknown. */
    const StatSet *statSet(std::string_view component) const;

  private:
    EventQueue &_eq;
    NodeId _id;
    const AddressMap &_amap;
    Tick _localHopLatency;
    Network &_net;

    std::unique_ptr<CacheController> _cache;
    std::unique_ptr<MemoryController> _mem;
    std::unique_ptr<ChipHomeController> _chip;
    std::unique_ptr<Processor> _proc;
    std::unique_ptr<IpiInterface> _ipi;
    std::unique_ptr<TrapDispatcher> _dispatcher;
    std::unique_ptr<LimitlessHandler> _handler;
};

} // namespace limitless

#endif // LIMITLESS_MACHINE_NODE_HH
