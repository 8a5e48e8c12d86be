/**
 * @file
 * Interprocessor-Interrupt (IPI) network interface (paper Section 4.2).
 *
 * The IPI mechanism is the processor's window onto the network: the
 * controller can divert packets into the IPI input queue (interrupting
 * the processor), and the processor can launch arbitrary packets —
 * protocol or interrupt class — through the output path. The input queue
 * is finite; overflow spills into the network receive queue, modelled
 * here as an unbounded overflow list whose depth is tracked (the paper's
 * deadlock discussion motivates the synchronous-trap requirement, which
 * the processor honours by draining the queue at trap priority).
 */

#ifndef LIMITLESS_IPI_IPI_INTERFACE_HH
#define LIMITLESS_IPI_IPI_INTERFACE_HH

#include <functional>

#include "proto/packet.hh"
#include "sim/event_queue.hh"
#include "sim/ring.hh"
#include "stats/stats.hh"

namespace limitless
{

/** Per-node IPI input/output queues. */
class IpiInterface
{
  public:
    using SendFn = std::function<void(PacketPtr)>;
    using InterruptFn = std::function<void()>;

    IpiInterface(EventQueue &eq, NodeId self, std::size_t input_capacity)
        : _eq(eq), _self(self), _capacity(input_capacity),
          _statDiverted(
              _stats.counter("diverted", "packets diverted to software")),
          _statSent(_stats.counter("sent", "packets launched by software")),
          _statOverflows(_stats.counter(
              "overflows", "input-queue overflows into the receive queue")),
          _statMaxDepth(
              _stats.counter("max_depth", "peak input queue depth"))
    {}

    /** Packet-launch path into the network fabric (set by the node). */
    void setSendPath(SendFn fn) { _send = std::move(fn); }

    /** Interrupt line to the processor's trap dispatcher. */
    void setInterrupt(InterruptFn fn) { _interrupt = std::move(fn); }

    /** Controller side: divert a packet to software. */
    void
    pushInput(PacketPtr pkt)
    {
        _statDiverted += 1;
        const bool was_empty = _input.empty();
        if (_input.size() >= _capacity)
            _statOverflows += 1; // backs up into the receive queue
        _input.push_back(std::move(pkt));
        if (_input.size() > _statMaxDepth.value()) {
            _statMaxDepth += static_cast<std::uint64_t>(
                _input.size() - _statMaxDepth.value());
        }
        if (was_empty && _interrupt)
            _interrupt();
    }

    bool empty() const { return _input.empty(); }
    std::size_t depth() const { return _input.size(); }

    /** Trap handler: examine the head packet without consuming it. */
    const Packet *
    peek() const
    {
        return _input.empty() ? nullptr : _input.front().get();
    }

    /** Trap handler: consume the head packet. */
    PacketPtr
    pop()
    {
        if (_input.empty())
            return nullptr;
        PacketPtr pkt = std::move(_input.front());
        _input.pop_front();
        return pkt;
    }

    /** Processor side: launch a packet (store to the trigger location). */
    void
    send(PacketPtr pkt)
    {
        _statSent += 1;
        _send(std::move(pkt));
    }

    NodeId nodeId() const { return _self; }
    StatSet &stats() { return _stats; }

  private:
    EventQueue &_eq;
    NodeId _self;
    std::size_t _capacity;
    Ring<PacketPtr> _input;
    SendFn _send;
    InterruptFn _interrupt;

    StatSet _stats{"ipi"};
    Counter &_statDiverted;
    Counter &_statSent;
    Counter &_statOverflows;
    Counter &_statMaxDepth;
};

} // namespace limitless

#endif // LIMITLESS_IPI_IPI_INTERFACE_HH
