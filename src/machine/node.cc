#include "machine/node.hh"

#include "obs/flight_recorder.hh"
#include "sim/log.hh"

namespace limitless
{

Node::Node(EventQueue &eq, NodeId id, const AddressMap &amap,
           const MachineConfig &cfg, Network &net,
           const CoherencePolicy &policy)
    : _eq(eq), _id(id), _amap(amap),
      _localHopLatency(cfg.localHopLatency), _net(net)
{
    _cache = std::make_unique<CacheController>(
        eq, id, amap, cfg.cache, cfg.protocol.kind, cfg.seed);
    _cache->setPolicy(&policy);
    _mem = std::make_unique<MemoryController>(eq, id, amap, cfg.protocol,
                                              cfg.mem);
    _mem->setPolicy(&policy);
    _proc = std::make_unique<Processor>(eq, id, *_cache, cfg.proc,
                                        cfg.seed);
    _ipi = std::make_unique<IpiInterface>(eq, id, cfg.ipiInputCapacity);

    if (cfg.hier && amap.clusterSize() > 1 &&
        cfg.protocol.kind != ProtocolKind::privateOnly) {
        _chip = std::make_unique<ChipHomeController>(eq, id, amap,
                                                     cfg.protocol,
                                                     cfg.mem);
        _chip->setSend(
            [this](PacketPtr pkt) { sendFrom(std::move(pkt)); });
        _chip->setTrapStall([this](Tick t) { _proc->stallFor(t); });
    }

    _cache->setSend([this](PacketPtr pkt) { sendFrom(std::move(pkt)); });
    _mem->setSend([this](PacketPtr pkt) { sendFrom(std::move(pkt)); });
    _ipi->setSendPath([this](PacketPtr pkt) { sendFrom(std::move(pkt)); });

    _mem->setTrapStall([this](Tick t) { _proc->stallFor(t); });
    _mem->setDivert([this](PacketPtr pkt) {
        _ipi->pushInput(std::move(pkt));
    });

    _dispatcher = std::make_unique<TrapDispatcher>(eq, *_ipi, *_proc,
                                                    cfg.kernel);
    if (cfg.protocol.kind == ProtocolKind::limitless &&
        cfg.protocol.limitlessMode == LimitlessMode::fullEmulation) {
        _handler =
            std::make_unique<LimitlessHandler>(eq, *_mem, cfg.kernel);
        _dispatcher->setProtocolHandler(_handler.get());
    }
    _ipi->setInterrupt([this]() { _dispatcher->onInterrupt(); });

    net.setReceiver(id, [this](PacketPtr pkt) {
        deliver(std::move(pkt));
    });
}

void
Node::sendFrom(PacketPtr pkt)
{
    assert(pkt);
    // Tagged packets open a network-leg span here and close it at
    // deliver(); untagged traffic pays one predicted branch.
    if (pkt->txnId)
        FlightRecorder::instance().txn().onNetSend(*pkt, _eq.now());
    if (pkt->dest != _id) {
        _net.send(std::move(pkt));
        return;
    }
    // Local loopback: cache <-> local memory controller without touching
    // the interconnect (local misses do not context-switch, paper §2).
    Packet *raw = pkt.release();
    _eq.schedule(_eq.now() + _localHopLatency, [this, raw]() {
        deliver(PacketPtr(raw));
    }, EventPriority::deliver);
}

void
Node::deliver(PacketPtr pkt)
{
    assert(pkt && pkt->dest == _id);
    if (pkt->txnId)
        FlightRecorder::instance().txn().onNetDeliver(*pkt, _eq.now());
    if (pkt->isInterrupt()) {
        _ipi->pushInput(std::move(pkt));
        return;
    }
    // Two-level mode: this node may be the chip home for remote lines
    // whose within-chip interleave digit matches it. A line homed on
    // this node's own chip always belongs to the global home / cache
    // (requestTargetFor never picks a same-chip chip home).
    const bool chipHomed =
        _chip && _amap.clusterOf(_amap.homeOf(pkt->addr())) !=
                     _amap.clusterOf(_id);
    switch (pkt->opcode) {
      // Cache-to-memory class (paper Table 3): to the home controller
      // (or, two-level mode, this chip's home for the line). WUPD/RUNC
      // always target the global home directly.
      case Opcode::RREQ:
      case Opcode::WREQ:
      case Opcode::REPM:
      case Opcode::UPDATE:
      case Opcode::ACKC:
      case Opcode::REPC:
        if (chipHomed) {
            _chip->enqueue(std::move(pkt));
            return;
        }
        [[fallthrough]];
      case Opcode::WUPD:
      case Opcode::RUNC:
        _mem->enqueue(std::move(pkt));
        return;
      // Memory-to-cache class: to the cache controller — unless the
      // chip home is mid-transaction on the line (parent replies) or
      // the packet is the parent's INV of the chip copy.
      case Opcode::RDATA:
      case Opcode::WDATA:
      case Opcode::INV:
      case Opcode::BUSY:
      case Opcode::REPC_ACK:
      case Opcode::MUPD:
      case Opcode::WACK:
        if (chipHomed && pkt->src != _id &&
            _amap.chipHomeOf(pkt->addr(), _amap.clusterOf(_id)) ==
                _id &&
            _chip->wantsResponse(pkt->addr(), pkt->opcode)) {
            _chip->enqueue(std::move(pkt));
            return;
        }
        _cache->handlePacket(std::move(pkt));
        return;
      default:
        panic("node %u: cannot route opcode %s", _id,
              opcodeName(pkt->opcode));
    }
}

const StatSet *
Node::statSet(std::string_view component) const
{
    if (component == "proc")
        return &const_cast<Processor &>(*_proc).stats();
    if (component == "cache")
        return &const_cast<CacheController &>(*_cache).stats();
    if (component == "mem")
        return &const_cast<MemoryController &>(*_mem).stats();
    if (component == "chip" && _chip)
        return &const_cast<ChipHomeController &>(*_chip).stats();
    if (component == "ipi")
        return &_ipi->stats();
    if (component == "handler" && _handler)
        return &_handler->stats();
    if (component == "trap")
        return &_dispatcher->stats();
    return nullptr;
}

} // namespace limitless
