/**
 * @file
 * Block-transfer service over the IPI interface (paper Section 4.2:
 * "This store-back capability permits message-passing and
 * block-transfers in addition to enabling the processing of protocol
 * packets with data").
 *
 * The sending thread reads a run of lines through the coherent
 * interface and ships them as interrupt-class packets; the receiver's
 * handler stores each payload back into its own memory *coherently*, as
 * ordinary stores through the receiving node's cache — so the home's
 * transition table invalidates or recalls every other cached copy of
 * the destination line, under every directory scheme — and posts a
 * completion message back once the last store is performed. Threads
 * wait on a host-visible done flag set by the completion handler (the
 * same interrupt-wait idiom as the FIFO lock).
 */

#ifndef LIMITLESS_KERNEL_BLOCK_TRANSFER_HH
#define LIMITLESS_KERNEL_BLOCK_TRANSFER_HH

#include <vector>

#include "machine/machine.hh"
#include "sim/task.hh"

namespace limitless
{

/** Machine-wide block-transfer service. */
class BlockTransferService
{
  public:
    /** @param service_id distinguishes concurrent services. */
    BlockTransferService(Machine &m, std::uint64_t service_id);

    /**
     * Transfer @p lines coherence lines starting at @p src_line (a
     * line-aligned address homed on the calling thread's node) to the
     * addresses starting at @p dst_line. With interleaved home mapping
     * consecutive destination lines live on consecutive nodes; each
     * line's packet is routed to its own home, whose handler stores it
     * back coherently and acknowledges. Blocks until every line is
     * acknowledged.
     */
    Task<> transfer(ThreadApi &t, Addr src_line, Addr dst_line,
                    unsigned lines);

    std::uint64_t packetsSent() const { return _packets; }

  private:
    enum Verb : std::uint64_t { dataVerb = 0, doneVerb = 1 };

    void handleMessage(NodeId receiver, const Packet &pkt);

    Machine &_m;
    std::uint64_t _id;
    std::vector<unsigned> _pendingAcks; ///< per-sender outstanding lines
    std::uint64_t _packets = 0;
};

} // namespace limitless

#endif // LIMITLESS_KERNEL_BLOCK_TRANSFER_HH
