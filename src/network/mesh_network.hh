/**
 * @file
 * Flit-level wormhole-routed fabric (paper Section 2: "the nodes
 * communicate via messages through a direct network with a mesh topology
 * using wormhole routing").
 *
 * Model:
 *  - routing, channel structure and VC discipline come from the
 *    Topology (mesh: dimension-ordered X-Y; torus: dimension-ordered
 *    with dateline VCs; express mesh: jumps-then-walks);
 *  - an output port is held by a packet from its head flit until its
 *    tail flit passes (wormhole, no interleaving);
 *  - credit-based flow control against finite input FIFOs, per virtual
 *    channel;
 *  - one flit per output port per network cycle; ejection consumes one
 *    flit per cycle, so heavily contended home nodes back up the fabric —
 *    this is the hot-spot behaviour Figure 8 of the paper depends on.
 *
 * Router ports are per-neighbor (plus one Local injection/ejection
 * port, always last), not a fixed five: a torus corner has four links x
 * two VCs, a mesh corner just two. Packets are decomposed into
 * 1 routing flit + flitsPerWord flits per packet word. The whole fabric
 * is a single clocked object that sleeps when no flits are in flight —
 * or, under the parallel kernel, one object partitioned at its boundary
 * links (setShard).
 */

#ifndef LIMITLESS_NETWORK_MESH_NETWORK_HH
#define LIMITLESS_NETWORK_MESH_NETWORK_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "network/flit_fifo.hh"
#include "network/network.hh"
#include "network/topology.hh"
#include "sim/event_queue.hh"
#include "sim/parallel_kernel.hh"
#include "stats/stats.hh"

namespace limitless
{

/** Wormhole fabric configuration (buffering and timing; the shape is
 *  the Topology's business). */
struct WormholeParams
{
    unsigned flitsPerWord = 1;  ///< flits per packet word (calibrated so Th~40)
    unsigned inputFifoFlits = 8; ///< per-port, per-VC buffering
    Tick clockPeriod = 1;       ///< network cycle in processor cycles
};

/**
 * Wormhole-routed network over an arbitrary grid Topology.
 *
 * The fabric is the one simulation object spanning node partitions, so
 * it doubles as the parallel kernel's ParallelCoupling. In shard mode
 * (setShard) the serial per-cycle tick() is replaced by one step per
 * partition per window: land what the neighbours staged last window
 * (flits and credit returns, through per-(src,dst) partition
 * channels), then plan and apply the partition's own routers, checking
 * credit against a per-port mirror of the downstream FIFO depth and
 * staging every push. Every statistic accumulates into per-partition
 * shards that the window epilogue folds back — in an order chosen so
 * the folded values are bit-identical to the serial kernel's
 * (docs/PERFORMANCE.md §4 lays out the argument).
 */
class MeshNetwork : public Network, public ParallelCoupling
{
  public:
    MeshNetwork(EventQueue &eq, std::shared_ptr<const Topology> topo,
                WormholeParams params = {});
    ~MeshNetwork() override;

    void send(PacketPtr pkt) override;
    void setReceiver(NodeId node, Receiver recv) override;
    unsigned numNodes() const override { return _numNodes; }
    bool busy() const override { return _activeFlits != 0; }

    const Topology &topology() const { return *_topo; }

    StatSet &stats() { return _stats; }
    const StatSet *statSet() const override { return &_stats; }

    /** Most ports any router may have (8 express links x 2 VCs +
     *  Local would be 17, but no shipped topology combines them; the
     *  masks below are 16 bits wide). */
    static constexpr unsigned maxPorts = 16;

    /**
     * Per-router telemetry, allocated on demand so the un-instrumented
     * hot path pays exactly one pointer test per flit hop. flitHops is
     * cumulative per router (the mesh hotspot top-k is derived from it);
     * the window peak is a reset-on-read high-water mark of flits
     * buffered in any single router.
     */
    struct MeshTelemetry
    {
        std::vector<std::uint64_t> flitHops; ///< per router, cumulative
        unsigned windowPeakDepth = 0;
    };

    void enableTelemetry();
    const MeshTelemetry *meshTelemetry() const { return _telem.get(); }

    /** Highest per-router buffered-flit count since the last call
     *  (telemetry gauge; resets the high-water mark). */
    unsigned
    takeWindowPeakDepth()
    {
        if (!_telem)
            return 0;
        const unsigned peak = _telem->windowPeakDepth;
        _telem->windowPeakDepth = 0;
        return peak;
    }

    /** Flits a given packet occupies on the wire. */
    unsigned
    flitsForPacket(const Packet &pkt) const
    {
        return 1 + pkt.lengthWords() * _params.flitsPerWord;
    }

    /** Peak capacity (in flits) any single input FIFO has reached;
     *  exercised by the hotspot overflow regression test. */
    std::size_t
    maxFifoCapacity() const
    {
        std::size_t cap = 0;
        for (const FlitFifo &fifo : _inPorts)
            if (fifo.capacity() > cap)
                cap = fifo.capacity();
        return cap;
    }

    /**
     * Enter shard mode for the parallel kernel: @p part_of maps each
     * router to its partition (contiguous, ascending), @p queues is the
     * per-partition event queue array. From here on the kernel drives
     * the fabric through the ParallelCoupling step and no tick events
     * are ever scheduled; send() and delivery switch to per-partition
     * accounting. Call before any packet is injected.
     */
    void setShard(std::vector<unsigned> part_of,
                  std::vector<EventQueue *> queues);

    /**
     * Flits handed to a *different* partition's routers since shard
     * mode began (cumulative; 0 in serial mode). The inter-partition
     * traffic signal for the pk.* utilization telemetry. Only safe to
     * read where shard counters are stable: the serial window tail or
     * after the run.
     */
    std::uint64_t
    crossPartitionFlits() const
    {
        std::uint64_t total = 0;
        for (const Shard &sh : _shards)
            total += sh.xpartFlits;
        return total;
    }

    // ParallelCoupling (parallel kernel's view of the fabric).
    Tick nextCoupledTick() const override { return _netNext; }
    void step(unsigned p, bool coupled) override;
    void settle() override;
    void coupledEpilogue(Tick window) override;

  private:
    struct OutputPort
    {
        int owner = -1; ///< input index holding this port, -1 if free
        unsigned rr = 0; ///< round-robin arbitration pointer
    };

    struct Router
    {
        unsigned flits = 0; ///< total flits buffered in this router
        /** Bit per input port with flits queued; every FIFO push/pop
         *  (send, applyMove) keeps it in sync so the planner iterates
         *  set bits instead of probing every FIFO. */
        std::uint16_t nonEmptyMask = 0;
        /** Bit per output port currently owned by a packet. */
        std::uint16_t ownerMask = 0;
    };

    /** A planned single-flit move, applied after all routers plan. */
    struct Move
    {
        unsigned fromRouter;
        unsigned fromPort;
        unsigned toRouter; ///< meaningful unless eject
        unsigned toPort;
        bool eject;
        bool releaseOwner;
        unsigned outPort; ///< output being traversed at fromRouter
    };

    /** One staged cross-partition (or same-partition, for ordering)
     *  flit movement; fromRouter drives the exact peak-depth
     *  reconstruction and is ascending within a channel. */
    struct StagedPush
    {
        Flit flit;
        std::uint32_t toRouter;
        std::uint32_t fromRouter;
        std::uint8_t toPort;
    };

    /**
     * Per-partition accounting, folded into the real counters by the
     * window epilogue (coordinator thread, workers parked) in an order
     * that reproduces the serial kernel's values exactly: integer
     * counters are commutative, latency samples replay in partition
     * (= ascending-router = serial move) order into the
     * order-sensitive Welford accumulator, and the window peak merges
     * by max. Cache-line aligned so two partitions' hot counters never
     * false-share.
     */
    struct alignas(64) Shard
    {
        std::vector<Move> moves;      ///< plan scratch
        std::vector<double> latency;  ///< deliver samples, in order
        std::vector<unsigned> flowRouters; ///< _tickFlow entries to clear
        std::uint64_t packets = 0;
        std::uint64_t flits = 0;
        std::uint64_t flitHops = 0;
        std::uint64_t blocked = 0;
        /** Flits staged to another partition; cumulative, *not* folded
         *  or reset by the epilogue (host-utilization observability,
         *  not a simulated-machine statistic). */
        std::uint64_t xpartFlits = 0;
        std::int64_t activeDelta = 0; ///< +injected -ejected flits
        unsigned peak = 0;            ///< windowPeakDepth candidate
    };

    /** What one partition stages for another in one window. Aligned so
     *  two partitions' channels never false-share. */
    struct alignas(64) Channel
    {
        std::vector<StagedPush> pushes;
        /** Input ports popped at the destination partition's routers
         *  whose upstream router the source partition owns: each frees
         *  one slot in the receiver's _mirrorDepth. */
        std::vector<std::uint32_t> credits;
    };

    /** Flits a router popped and received by send() this tick
     *  (telemetry only): reconstructs the serial kernel's intermediate
     *  buffer depths for the exact windowPeakDepth. */
    struct TickFlow
    {
        std::uint32_t pops = 0;
        std::uint32_t sends = 0;
    };

    void tick();
    /**
     * Plan router @p r's moves for one cycle against pre-cycle state,
     * appending them to @p moves and counting credit-blocked outputs in
     * @p blocked. @p depthOf(port) is the downstream input port's
     * depth: the FIFO itself serially, the depth mirror in shard mode.
     */
    template <class DepthFn>
    void planRouter(unsigned r, DepthFn depthOf, std::vector<Move> &moves,
                    std::uint64_t &blocked);
    void applyMove(const Move &move);
    void applyMoveShard(const Move &move, unsigned p);
    /** Land everything buffer @p buf holds for partition @p p: credit
     *  returns into its mirror, pushes into its routers in source
     *  order. */
    void landStaged(unsigned p, unsigned buf);
    void clearTickFlow(unsigned p);
    void scheduleTickIfNeeded();
    /** Queue @p pkt's flits on its source router's Local port, stamped
     *  with @p eq's clock. @return the flit count. */
    unsigned inject(PacketPtr pkt, const EventQueue &eq);
    void deliver(Packet *raw);
    void deliverShard(Packet *raw, unsigned p);
    /** Schedule @p raw's handoff to its receiver on @p eq. */
    void handOff(Packet *raw, EventQueue &eq);

    Channel &
    channel(unsigned buf, unsigned src, unsigned dst)
    {
        return _chan[(std::size_t{buf} * _numParts + src) * _numParts + dst];
    }

    /** Router @p r's flow counters, registering it for clearing. */
    TickFlow &
    noteTickFlow(unsigned r, Shard &sh)
    {
        TickFlow &f = _tickFlow[r];
        if (!f.pops && !f.sends)
            sh.flowRouters.push_back(r);
        return f;
    }

    /**
     * Active-router bitmap updates in shard mode: a 64-router word can
     * straddle a partition boundary, so the bit flips must be atomic
     * (relaxed is enough — each bit has one writer, the router's
     * partition, and the window barrier orders everything else).
     */
    void
    noteFlitsShard(unsigned r, bool nowActive)
    {
        std::atomic_ref<std::uint64_t> word(_activeRouters[r / 64]);
        if (nowActive)
            word.fetch_or(std::uint64_t{1} << (r % 64),
                          std::memory_order_relaxed);
        else
            word.fetch_and(~(std::uint64_t{1} << (r % 64)),
                           std::memory_order_relaxed);
    }

    unsigned numPortsOf(unsigned r) const
    {
        return _portBase[r + 1] - _portBase[r];
    }

    /** Track a router's flit count crossing zero in the active bitmap. */
    void
    noteFlits(unsigned r, unsigned delta_add, unsigned delta_sub)
    {
        Router &router = _routers[r];
        router.flits += delta_add;
        router.flits -= delta_sub;
        if (_telem && delta_add && router.flits > _telem->windowPeakDepth)
            _telem->windowPeakDepth = router.flits;
        if (router.flits)
            _activeRouters[r / 64] |= std::uint64_t{1} << (r % 64);
        else
            _activeRouters[r / 64] &= ~(std::uint64_t{1} << (r % 64));
    }

    EventQueue &_eq;
    std::shared_ptr<const Topology> _topo;
    WormholeParams _params;
    unsigned _numNodes;
    unsigned _vcs; ///< virtual channels per link (1 or 2)
    std::vector<Router> _routers;
    std::vector<Receiver> _receivers;
    std::unique_ptr<MeshTelemetry> _telem; ///< null unless enabled
    std::uint64_t _activeFlits = 0;
    bool _tickScheduled = false;

    /** Per-tick planning scratch, hoisted so tick() never allocates. */
    std::vector<Move> _moves;

    /**
     * Flat per-port state: router r owns indices [_portBase[r],
     * _portBase[r+1]). Port layout per router: channel c's VC v at
     * index c * vcs + v, the Local injection/ejection port last —
     * which preserves the N, E, S, W, Local arbitration order of the
     * original fixed-five-port mesh router.
     */
    std::vector<std::uint32_t> _portBase; ///< size numNodes + 1
    std::vector<FlitFifo> _inPorts;
    std::vector<OutputPort> _outPorts;

    /**
     * Routing and link lookups precomputed per (router, dest) / port:
     * the planner consults them for every waiting head flit of every
     * active router every cycle, and virtual calls or modulo
     * arithmetic there dominated the tick before they were tabulated.
     *
     * _routeTable holds channel * vcs + datelineBaseVc, or localSelf
     * for dest == router; with two VCs the dateline carry bit is OR'd
     * in from the input port's VC when input and output channels share
     * a dimension class (_chanDimMask).
     */
    static constexpr std::uint8_t localSelf = 0xFF;
    std::vector<std::uint8_t> _routeTable;  ///< [r * numNodes + dest]
    std::vector<std::uint16_t> _chanDimMask; ///< bit per channel: dim
    std::vector<std::uint32_t> _destRouter; ///< per port: link target
    std::vector<std::uint8_t> _destPort;    ///< per port: input there

    /** One bit per router with flits buffered; tick() scans set bits. */
    std::vector<std::uint64_t> _activeRouters;

    // ---- shard mode (parallel kernel) ----
    bool _shard = false;
    unsigned _numParts = 0;
    std::vector<unsigned> _partOf;         ///< router -> partition
    std::vector<unsigned> _partLo;         ///< partition -> first router
    std::vector<EventQueue *> _shardQueues; ///< partition clocks/queues
    std::vector<Shard> _shards;
    /**
     * SPSC channels, two buffers of P x P (channel()): in a window,
     * partition src appends to buffer _cur only, and partition dst
     * lands and clears buffer _cur ^ 1 only, so the two never touch the
     * same buffer before the barrier swaps them. Landing src = 0..P-1
     * in order restores the serial kernel's ascending-fromRouter push
     * order (partitions are contiguous router ranges).
     */
    std::vector<Channel> _chan;
    unsigned _cur = 0; ///< buffer this window stages into
    /**
     * Per neighbour input port: its FIFO depth as the partition owning
     * the upstream router accounts it — raised when that partition
     * stages a push, lowered when the pop is credited back. Written
     * only by that partition, so its planner reads credit without
     * touching a FIFO another partition may be landing flits into; at
     * plan time it equals the pre-tick FIFO depth the serial tick
     * reads (docs/PERFORMANCE.md §4).
     */
    std::vector<std::uint32_t> _mirrorDepth;
    /** Per router, owned by its partition; cleared by every step's
     *  landing (Shard::flowRouters). */
    std::vector<TickFlow> _tickFlow;
    /** Next fabric cycle under the kernel (maxTick = no flits in
     *  flight); recomputed by every window epilogue exactly as the
     *  serial scheduleTickIfNeeded would. */
    Tick _netNext = maxTick;

    StatSet _stats{"net"};
    Counter &_statPackets;
    Counter &_statFlits;
    Counter &_statFlitHops;
    Accumulator &_statLatency;
    Counter &_statBlockedCycles;
};

} // namespace limitless

#endif // LIMITLESS_NETWORK_MESH_NETWORK_HH
