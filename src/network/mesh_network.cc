#include "network/mesh_network.hh"

#include <bit>
#include <cassert>

#include "obs/flight_recorder.hh"
#include "obs/host_profiler.hh"
#include "sim/log.hh"

namespace limitless
{

namespace
{

TraceEvent
netEvent(Tick ts, const char *name, const Packet &pkt, NodeId node)
{
    TraceEvent ev;
    ev.ts = ts;
    ev.name = name;
    ev.cat = EventCat::net;
    ev.node = node;
    if (isProtocolOpcode(pkt.opcode) && !pkt.operands.empty())
        ev.line = pkt.addr();
    ev.op = pkt.opcode;
    ev.hasOp = true;
    ev.src = pkt.src;
    ev.dest = pkt.dest;
    return ev;
}

} // namespace

MeshNetwork::MeshNetwork(EventQueue &eq, std::shared_ptr<const Topology> topo,
                         WormholeParams params)
    : _eq(eq), _topo(std::move(topo)), _params(params),
      _numNodes(_topo->numNodes()), _vcs(_topo->numVcs()),
      _routers(_numNodes), _receivers(_numNodes),
      _statPackets(_stats.counter("packets", "packets delivered")),
      _statFlits(_stats.counter("flits", "flits injected")),
      _statFlitHops(_stats.counter("flit_hops", "flit-hops traversed")),
      _statLatency(
          _stats.accumulator("latency", "packet latency (cycles)")),
      _statBlockedCycles(
          _stats.counter("blocked", "output-port cycles blocked on credit"))
{
    assert(_params.flitsPerWord >= 1);
    assert(_params.inputFifoFlits >= 2);
    assert(_vcs >= 1 && _vcs <= 2 && "fabric supports 1 or 2 VCs");
    _moves.reserve(32);

    const unsigned n = _numNodes;
    const Topology &topof = *_topo;

    // Port layout: channel c's VC v at index c * vcs + v, Local last.
    _portBase.resize(n + 1);
    _portBase[0] = 0;
    for (unsigned r = 0; r < n; ++r) {
        const unsigned deg =
            static_cast<unsigned>(topof.neighbors(r).size());
        const unsigned ports = deg * _vcs + 1;
        assert(ports <= maxPorts && "router exceeds port-mask width");
        _portBase[r + 1] = _portBase[r] + ports;
    }
    const std::uint32_t total = _portBase[n];
    _inPorts.resize(total);
    _outPorts.resize(total);
    _activeRouters.resize((n + 63) / 64, 0);

    // Neighbor ports are credit-bounded; Local (last) grows on demand.
    for (unsigned r = 0; r < n; ++r)
        for (std::uint32_t p = _portBase[r]; p + 1 < _portBase[r + 1]; ++p)
            _inPorts[p].setBound(_params.inputFifoFlits);

    // Tabulate routing, dimension classes and link endpoints once; the
    // planner consults them for every waiting head flit of every active
    // router every cycle.
    _chanDimMask.assign(n, 0);
    _destRouter.resize(total, 0);
    _destPort.resize(total, 0);
    for (unsigned r = 0; r < n; ++r) {
        const auto &nbrs = topof.neighbors(r);
        for (unsigned c = 0; c < nbrs.size(); ++c) {
            if (topof.channelDim(r, c))
                _chanDimMask[r] |= std::uint16_t{1} << c;
            const unsigned rev = topof.reverseChannel(r, c);
            for (unsigned v = 0; v < _vcs; ++v) {
                const std::uint32_t port = _portBase[r] + c * _vcs + v;
                _destRouter[port] = nbrs[c];
                _destPort[port] =
                    static_cast<std::uint8_t>(rev * _vcs + v);
            }
        }
    }
#ifndef NDEBUG
    // planRouter checks credit against the downstream depth with no
    // same-tick reservation, in both modes, which is exact only because
    // every neighbour input port has exactly one upstream output and an
    // output plans at most one move per tick (docs/PERFORMANCE.md §4).
    std::vector<std::uint8_t> upstreams(total, 0);
    for (unsigned r = 0; r < n; ++r)
        for (std::uint32_t o = _portBase[r]; o + 1 < _portBase[r + 1]; ++o)
            ++upstreams[_portBase[_destRouter[o]] + _destPort[o]];
    for (unsigned r = 0; r < n; ++r)
        for (std::uint32_t i = _portBase[r]; i + 1 < _portBase[r + 1]; ++i)
            assert(upstreams[i] == 1 && "input port without one upstream");
#endif
    _routeTable.resize(std::size_t{n} * n);
    for (unsigned r = 0; r < n; ++r) {
        for (unsigned d = 0; d < n; ++d) {
            std::uint8_t entry = localSelf;
            if (d != r) {
                const unsigned ch = topof.nextChannel(r, d);
                const unsigned base_vc =
                    _vcs == 2 && topof.channelWrap(r, ch) ? 1 : 0;
                entry = static_cast<std::uint8_t>(ch * _vcs + base_vc);
            }
            _routeTable[std::size_t{r} * n + d] = entry;
        }
    }
}

MeshNetwork::~MeshNetwork()
{
    // Retire any packets still in flight at teardown. Every undelivered
    // packet has exactly one tail flit buffered somewhere (delivery — and
    // hence removal from the fabric — happens when the tail ejects), so
    // freeing on tail flits frees each in-flight packet exactly once.
    for (FlitFifo &fifo : _inPorts) {
        for (std::size_t i = 0; i < fifo.size(); ++i) {
            if (fifo.at(i).tail)
                PacketDeleter{}(fifo.at(i).pkt);
        }
    }
}

void
MeshNetwork::setReceiver(NodeId node, Receiver recv)
{
    _receivers.at(node) = std::move(recv);
}

void
MeshNetwork::send(PacketPtr pkt)
{
    assert(pkt);
    assert(pkt->src < numNodes() && pkt->dest < numNodes());
    const NodeId src = pkt->src;
    if (_shard) {
        // Shard mode: the caller is the thread owning src's partition
        // (node work only runs there), so every touched structure —
        // src's router, the partition shard, the partition clock — is
        // single-writer. No tick event is scheduled; the epilogue's
        // activeDelta fold makes the kernel run the fabric next tick.
        const unsigned p = _partOf[src];
        const unsigned flits = inject(std::move(pkt), *_shardQueues[p]);
        Router &router = _routers[src];
        router.flits += flits;
        Shard &sh = _shards[p];
        if (_telem) {
            noteTickFlow(src, sh).sends += flits;
            if (router.flits > sh.peak)
                sh.peak = router.flits;
        }
        if (router.flits == flits)
            noteFlitsShard(src, true);
        sh.activeDelta += flits;
        sh.flits += flits;
        return;
    }
    const unsigned flits = inject(std::move(pkt), _eq);
    noteFlits(src, flits, 0);
    _activeFlits += flits;
    _statFlits += flits;
    scheduleTickIfNeeded();
}

unsigned
MeshNetwork::inject(PacketPtr pkt, const EventQueue &eq)
{
    FR_RECORD(netEvent(eq.now(), "send", *pkt, pkt->src));
    Packet *raw = pkt.release();
    raw->injectTick = eq.now();
    const unsigned flits = flitsForPacket(*raw);
    const unsigned local = numPortsOf(raw->src) - 1;
    FlitFifo &fifo = _inPorts[_portBase[raw->src] + local];
    for (unsigned i = 0; i < flits; ++i)
        fifo.push_back(Flit{raw, i == 0, i == flits - 1, raw->dest});
    _routers[raw->src].nonEmptyMask |= std::uint16_t{1} << local;
    return flits;
}

void
MeshNetwork::scheduleTickIfNeeded()
{
    if (_tickScheduled || _activeFlits == 0)
        return;
    _tickScheduled = true;
    auto fire = [this]() {
        _tickScheduled = false;
        tick();
    };
    static_assert(EventQueue::Callback::fitsInline<decltype(fire)>,
                  "mesh tick event must not heap-allocate");
    _eq.schedule(_eq.now() + _params.clockPeriod, std::move(fire),
                 EventPriority::network);
}

template <class DepthFn>
void
MeshNetwork::planRouter(unsigned r, DepthFn depthOf,
                        std::vector<Move> &moves, std::uint64_t &blocked)
{
    Router &router = _routers[r];
    const std::uint32_t base = _portBase[r];
    const unsigned num_ports = _portBase[r + 1] - base;
    const unsigned local = num_ports - 1;
    const std::uint8_t *routes =
        &_routeTable[std::size_t{r} * _numNodes];

    // One pass over the occupied inputs: note which output each waiting
    // head flit wants. Head flits at the front of a FIFO are by
    // construction not part of a packet that already owns an output, so
    // `contend` and the owner continuations below partition the inputs.
    std::uint16_t contend[maxPorts] = {};
    const unsigned nonEmpty = router.nonEmptyMask;
    unsigned outputs = router.ownerMask;
    for (unsigned bits = nonEmpty; bits; bits &= bits - 1) {
        const unsigned i = static_cast<unsigned>(std::countr_zero(bits));
        const Flit &front = _inPorts[base + i].front();
        if (!front.head)
            continue;
        const std::uint8_t rp = routes[front.dest];
        unsigned o;
        if (rp == localSelf) {
            o = local;
        } else if (_vcs == 1) {
            o = rp;
        } else {
            // Dateline rule: a packet already on VC1 stays on VC1 while
            // it continues in the same dimension class; crossing
            // dimensions (or injecting) resets to the link's base VC.
            unsigned carry = 0;
            if (i != local && (i & 1)) {
                const std::uint16_t dims = _chanDimMask[r];
                carry = ((dims >> (i >> 1)) & 1) ==
                        ((dims >> (rp >> 1)) & 1);
            }
            o = rp | carry;
        }
        contend[o] |= std::uint16_t{1} << i;
        outputs |= 1u << o;
    }

    for (unsigned obits = outputs; obits; obits &= obits - 1) {
        const unsigned o = static_cast<unsigned>(std::countr_zero(obits));
        OutputPort &op = _outPorts[base + o];
        int src = op.owner;
        if (src == -1 && contend[o]) {
            // Arbitrate a new packet onto this output, round-robin.
            for (unsigned k = 0; k < num_ports; ++k) {
                unsigned i = op.rr + k;
                if (i >= num_ports)
                    i -= num_ports;
                if (!(contend[o] & (std::uint16_t{1} << i)))
                    continue;
                src = static_cast<int>(i);
                op.rr = i + 1 == num_ports ? 0 : i + 1;
                op.owner = src;
                router.ownerMask |= std::uint16_t{1} << o;
                break;
            }
        }
        if (src == -1)
            continue;
        if (!(nonEmpty & (std::uint16_t{1} << src)))
            continue; // wormhole bubble: next flit not here yet

        const Flit &flit = _inPorts[base + src].front();

        Move move{};
        move.fromRouter = r;
        move.fromPort = static_cast<unsigned>(src);
        move.outPort = o;
        move.releaseOwner = flit.tail;
        if (o == local) {
            move.eject = true;
        } else {
            move.eject = false;
            move.toRouter = _destRouter[base + o];
            move.toPort = _destPort[base + o];
            // No same-tick reservation is needed: the port's one
            // upstream output is this one, planning once per tick.
            if (depthOf(_portBase[move.toRouter] + move.toPort) >=
                _params.inputFifoFlits) {
                blocked += 1;
                continue; // no credit downstream
            }
        }
        moves.push_back(move);
    }
}

void
MeshNetwork::applyMove(const Move &move)
{
    Router &router = _routers[move.fromRouter];
    FlitFifo &in = _inPorts[_portBase[move.fromRouter] + move.fromPort];
    assert(!in.empty());
    Flit flit = in.front();
    in.pop_front();
    if (in.empty())
        router.nonEmptyMask &= ~(std::uint16_t{1} << move.fromPort);
    noteFlits(move.fromRouter, 0, 1);
    _statFlitHops += 1;
    if (_telem)
        ++_telem->flitHops[move.fromRouter];

    if (move.releaseOwner) {
        OutputPort &op =
            _outPorts[_portBase[move.fromRouter] + move.outPort];
        op.owner = -1;
        router.ownerMask &= ~(std::uint16_t{1} << move.outPort);
    }

    if (move.eject) {
        --_activeFlits;
        if (flit.tail)
            deliver(flit.pkt);
    } else {
        _inPorts[_portBase[move.toRouter] + move.toPort].push_back(flit);
        _routers[move.toRouter].nonEmptyMask |=
            std::uint16_t{1} << move.toPort;
        noteFlits(move.toRouter, 1, 0);
    }
}

void
MeshNetwork::enableTelemetry()
{
    if (_telem)
        return;
    _telem = std::make_unique<MeshTelemetry>();
    _telem->flitHops.assign(_routers.size(), 0);
}

void
MeshNetwork::tick()
{
    PROF_SCOPE("net.tick");
    // Plan all single-hop moves against pre-cycle state, then apply, so a
    // flit advances at most one hop per network cycle. The move list is
    // a member: tick() runs every network cycle and must not allocate.
    _moves.clear();
    std::uint64_t blocked = 0;
    auto fifoDepth = [this](std::uint32_t i) { return _inPorts[i].size(); };
    for (std::size_t w = 0; w < _activeRouters.size(); ++w) {
        std::uint64_t bits = _activeRouters[w];
        while (bits) {
            planRouter(static_cast<unsigned>(
                           w * 64 + std::countr_zero(bits)),
                       fifoDepth, _moves, blocked);
            bits &= bits - 1;
        }
    }
    _statBlockedCycles += blocked;
    for (const Move &move : _moves)
        applyMove(move);
    scheduleTickIfNeeded();
}

void
MeshNetwork::deliver(Packet *raw)
{
    _statLatency.sample(static_cast<double>(_eq.now() - raw->injectTick));
    _statPackets += 1;
    handOff(raw, _eq);
}

void
MeshNetwork::handOff(Packet *raw, EventQueue &eq)
{
    PacketPtr owned(raw);
    FR_RECORD(netEvent(eq.now(), "recv", *owned, owned->dest));
    Receiver &recv = _receivers.at(owned->dest);
    if (!recv)
        panic("mesh network: no receiver at node %u", owned->dest);
    if (Log::enabled("net"))
        Log::debug(eq.now(), "net", "deliver %s",
                   describePacket(*owned).c_str());
    // Hand off at deliver priority so controllers see the packet after all
    // of this cycle's flit movement completes. In shard mode the ejecting
    // router belongs to the caller's partition, so @p eq is that
    // partition's queue and the handoffs land in apply order: the serial
    // schedule order restricted to the partition's routers.
    Packet *pending = owned.release();
    auto handoff = [this, pending]() {
        PacketPtr p(pending);
        _receivers.at(p->dest)(std::move(p));
    };
    static_assert(EventQueue::Callback::fitsInline<decltype(handoff)>,
                  "mesh delivery event must not heap-allocate");
    eq.schedule(eq.now(), std::move(handoff), EventPriority::deliver);
}

// ---------------------------------------------------------------------
// Shard mode: the fabric as the parallel kernel's cross-partition
// coupling. Every method below is unreachable unless setShard() ran.
// ---------------------------------------------------------------------

void
MeshNetwork::setShard(std::vector<unsigned> part_of,
                      std::vector<EventQueue *> queues)
{
    assert(!_shard && "setShard called twice");
    assert(part_of.size() == _numNodes);
    assert(!queues.empty());
    assert(_activeFlits == 0 && "setShard with flits already in flight");
    _shard = true;
    _partOf = std::move(part_of);
    _shardQueues = std::move(queues);
    _numParts = static_cast<unsigned>(_shardQueues.size());

    // Partitions must be contiguous ascending router ranges — that is
    // what makes landing channels in source-partition order equal to
    // the serial kernel's ascending-fromRouter push order.
    _partLo.assign(_numParts + 1, 0);
    _partLo[_numParts] = _numNodes;
    assert(_partOf[0] == 0 && "partition 0 must start at router 0");
    for (unsigned r = 1; r < _numNodes; ++r) {
        assert(_partOf[r] >= _partOf[r - 1] &&
               _partOf[r] <= _partOf[r - 1] + 1 &&
               "partitions must be contiguous ascending");
        if (_partOf[r] != _partOf[r - 1])
            _partLo[_partOf[r]] = r;
    }
    assert(_partOf[_numNodes - 1] == _numParts - 1 &&
           "every partition must own at least one router");

    _shards = std::vector<Shard>(_numParts);
    for (Shard &sh : _shards)
        sh.moves.reserve(32);
    _chan = std::vector<Channel>(std::size_t{2} * _numParts * _numParts);
    _mirrorDepth.assign(_inPorts.size(), 0);
    _tickFlow.assign(_numNodes, TickFlow{});
}

void
MeshNetwork::step(unsigned p, bool coupled)
{
    {
        PROF_SCOPE("pk.drain");
        landStaged(p, _cur ^ 1);
        clearTickFlow(p);
    }
    if (!coupled)
        return;
    Shard &sh = _shards[p];
    sh.moves.clear();
    const unsigned lo = _partLo[p];
    const unsigned hi = _partLo[p + 1];
    // Credit comes from the depth mirror, never from the downstream
    // FIFO, which may belong to a partition that is mid-window.
    auto mirrorDepth = [this](std::uint32_t i) { return _mirrorDepth[i]; };
    {
        PROF_SCOPE("pk.plan");
        // Scan the partition's slice of the active bitmap. A boundary
        // word is shared with a neighbour flipping its own bits
        // concurrently, hence the atomic load; this partition's bits
        // only ever change on this thread.
        for (unsigned w = lo / 64; w <= (hi - 1) / 64; ++w) {
            std::uint64_t bits = std::atomic_ref<std::uint64_t>(
                                     _activeRouters[w])
                                     .load(std::memory_order_relaxed);
            if (w == lo / 64)
                bits &= ~std::uint64_t{0} << (lo % 64);
            if (w == (hi - 1) / 64 && hi % 64)
                bits &= ~(~std::uint64_t{0} << (hi % 64));
            while (bits) {
                planRouter(static_cast<unsigned>(
                               w * 64 + std::countr_zero(bits)),
                           mirrorDepth, sh.moves, sh.blocked);
                bits &= bits - 1;
            }
        }
    }
    {
        PROF_SCOPE("pk.apply");
        for (const Move &move : sh.moves)
            applyMoveShard(move, p);
    }
}

void
MeshNetwork::applyMoveShard(const Move &move, unsigned p)
{
    Shard &sh = _shards[p];
    Router &router = _routers[move.fromRouter];
    const std::uint32_t in_idx = _portBase[move.fromRouter] + move.fromPort;
    FlitFifo &in = _inPorts[in_idx];
    assert(!in.empty());
    Flit flit = in.front();
    in.pop_front();
    if (in.empty())
        router.nonEmptyMask &= ~(std::uint16_t{1} << move.fromPort);
    --router.flits;
    if (!router.flits)
        noteFlitsShard(move.fromRouter, false);
    sh.flitHops += 1;
    if (_telem) {
        ++_telem->flitHops[move.fromRouter];
        noteTickFlow(move.fromRouter, sh).pops += 1;
    }
    // The pop frees a slot upstream: credit it to the mirror now if
    // this partition owns the upstream router, else return the credit
    // through the channel for the owner's next step. (The Local port
    // has no upstream router and no credit.)
    if (in_idx + 1 != _portBase[move.fromRouter + 1]) {
        const unsigned up = _partOf[_destRouter[in_idx]];
        if (up == p)
            --_mirrorDepth[in_idx];
        else
            channel(_cur, p, up).credits.push_back(in_idx);
    }

    if (move.releaseOwner) {
        OutputPort &op =
            _outPorts[_portBase[move.fromRouter] + move.outPort];
        op.owner = -1;
        router.ownerMask &= ~(std::uint16_t{1} << move.outPort);
    }

    if (move.eject) {
        sh.activeDelta -= 1;
        if (flit.tail)
            deliverShard(flit.pkt, p);
    } else {
        // Stage the push — even for a same-partition destination, so
        // the next step lands all pushes in the serial order.
        const std::uint32_t idx = _portBase[move.toRouter] + move.toPort;
        ++_mirrorDepth[idx];
        const unsigned dst = _partOf[move.toRouter];
        if (dst != p)
            sh.xpartFlits += 1;
        channel(_cur, p, dst).pushes.push_back(
            StagedPush{flit, move.toRouter, move.fromRouter,
                       static_cast<std::uint8_t>(move.toPort)});
    }
}

void
MeshNetwork::landStaged(unsigned p, unsigned buf)
{
    Shard &sh = _shards[p];
    for (unsigned q = 0; q < _numParts; ++q) {
        Channel &ch = channel(buf, q, p);
        for (const std::uint32_t idx : ch.credits)
            --_mirrorDepth[idx];
        ch.credits.clear();
        for (const StagedPush &sp : ch.pushes) {
            const unsigned t = sp.toRouter;
            _inPorts[_portBase[t] + sp.toPort].push_back(sp.flit);
            Router &router = _routers[t];
            router.nonEmptyMask |= std::uint16_t{1} << sp.toPort;
            ++router.flits;
            if (router.flits == 1)
                noteFlitsShard(t, true);
            if (_telem) {
                // The serial tick lands pushes from routers below t
                // before t's own pops, pushes from above after them,
                // and the tick's sends after every push. Here t has
                // already popped and sent, so a push from below
                // reconstructs its serial depth by undoing both; any
                // other push reads the current depth, which never
                // exceeds the serial peak and whose last value is the
                // serial end-of-tick depth.
                const TickFlow &f = _tickFlow[t];
                unsigned depth = router.flits;
                if (sp.fromRouter < t && f.pops > f.sends)
                    depth += f.pops - f.sends;
                if (depth > sh.peak)
                    sh.peak = depth;
            }
        }
        ch.pushes.clear();
    }
}

void
MeshNetwork::clearTickFlow(unsigned p)
{
    Shard &sh = _shards[p];
    for (const unsigned r : sh.flowRouters)
        _tickFlow[r] = TickFlow{};
    sh.flowRouters.clear();
}

void
MeshNetwork::settle()
{
    // Coordinator only, workers parked. At most one of the two buffers
    // holds anything (each step empties the older one), so landing
    // both, in partition order, is exactly the next windows' steps.
    for (unsigned p = 0; p < _numParts; ++p) {
        landStaged(p, 0);
        landStaged(p, 1);
        clearTickFlow(p);
    }
}

void
MeshNetwork::deliverShard(Packet *raw, unsigned p)
{
    Shard &sh = _shards[p];
    EventQueue &eq = *_shardQueues[p];
    sh.latency.push_back(static_cast<double>(eq.now() - raw->injectTick));
    sh.packets += 1;
    handOff(raw, eq);
}

void
MeshNetwork::coupledEpilogue(Tick window)
{
    // Fold the partition shards, partition-major — which is ascending
    // router order, i.e. exactly the order the serial kernel would have
    // produced these updates within the window. Integer counters are
    // order-free; the latency accumulator (Welford) is not, hence the
    // ordered replay.
    for (Shard &sh : _shards) {
        _statPackets += sh.packets;
        _statFlits += sh.flits;
        _statFlitHops += sh.flitHops;
        _statBlockedCycles += sh.blocked;
        sh.packets = sh.flits = sh.flitHops = sh.blocked = 0;
        _activeFlits = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(_activeFlits) + sh.activeDelta);
        sh.activeDelta = 0;
        for (const double v : sh.latency)
            _statLatency.sample(v);
        sh.latency.clear();
        if (_telem && sh.peak > _telem->windowPeakDepth)
            _telem->windowPeakDepth = sh.peak;
        sh.peak = 0;
    }
    // Exactly the serial scheduleTickIfNeeded: while flits are in
    // flight — staged ones included — the fabric clocks every cycle,
    // and a send into an idle fabric wakes it one clock later.
    _netNext = _activeFlits ? window + _params.clockPeriod : maxTick;
    // This window's staging buffer becomes the next window's inbound.
    _cur ^= 1;
}

} // namespace limitless
