#include "kernel/block_transfer.hh"

#include <memory>

#include "sim/log.hh"

namespace limitless
{

BlockTransferService::BlockTransferService(Machine &m,
                                           std::uint64_t service_id)
    : _m(m), _id(service_id), _pendingAcks(m.numNodes(), 0)
{
    for (NodeId n = 0; n < _m.numNodes(); ++n) {
        _m.node(n).dispatcher().registerMessage(
            Opcode::IPI_BLOCK_XFER, [this, n](const Packet &pkt) {
                handleMessage(n, pkt);
            });
    }
}

void
BlockTransferService::handleMessage(NodeId receiver, const Packet &pkt)
{
    if (pkt.operands.empty() || pkt.operands[0] != _id)
        return;
    const std::uint64_t verb = pkt.operands.at(1);

    if (verb == doneVerb) {
        // Per-line acknowledgment arriving back at the sender.
        assert(_pendingAcks[receiver] > 0);
        --_pendingAcks[receiver];
        return;
    }

    // Data packet: store the payload back coherently — each word is an
    // ordinary store through this node's own cache, so the home's table
    // recalls or invalidates every other copy of the destination under
    // any scheme. The stores go back to back (the cache queues accesses
    // to a line with a transaction in flight); the completion message
    // leaves when the last one is performed.
    const Addr dst_line = pkt.operands.at(2);
    assert(_m.addressMap().homeOf(dst_line) == receiver);
    const unsigned words = _m.addressMap().wordsPerLine();
    assert(pkt.data.size() >= words);
    const auto sender = static_cast<NodeId>(pkt.src);
    auto left = std::make_shared<unsigned>(words);
    for (unsigned w = 0; w < words; ++w) {
        const MemOp store{MemOpKind::store, dst_line + w * bytesPerWord,
                          pkt.data[w]};
        _m.node(receiver).cache().access(
            store, [this, receiver, sender, left](std::uint64_t) {
                if (--*left != 0)
                    return;
                _m.node(receiver).ipi().send(makeInterruptPacket(
                    receiver, sender, Opcode::IPI_BLOCK_XFER,
                    {_id, doneVerb}));
            });
    }
}

Task<>
BlockTransferService::transfer(ThreadApi &t, Addr src_line,
                               Addr dst_line, unsigned lines)
{
    const NodeId self = t.nodeId();
    const AddressMap &amap = _m.addressMap();
    if (amap.homeOf(src_line) != self)
        fatal("block transfer: source %#llx is not homed locally",
              (unsigned long long)src_line);
    assert(lines >= 1);

    _pendingAcks[self] = lines;
    // Read the payload through the coherent interface (hits in the
    // sender's own cache when it produced the data) and launch one
    // packet per line, each routed to that line's home.
    for (unsigned k = 0; k < lines; ++k) {
        const Addr src = src_line + k * amap.lineBytes();
        const Addr dst = dst_line + k * amap.lineBytes();
        std::vector<std::uint64_t> payload;
        payload.reserve(amap.wordsPerLine());
        for (unsigned w = 0; w < amap.wordsPerLine(); ++w)
            payload.push_back(
                co_await t.read(src + w * bytesPerWord));
        _m.node(self).ipi().send(makeInterruptPacket(
            self, amap.homeOf(dst), Opcode::IPI_BLOCK_XFER,
            {_id, dataVerb, dst}, std::move(payload)));
        ++_packets;
        co_await t.compute(4); // per-packet launch cost
    }

    // Wait for every line's completion interrupt.
    while (_pendingAcks[self] != 0)
        co_await t.compute(8);
}

} // namespace limitless
