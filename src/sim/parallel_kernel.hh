/**
 * @file
 * Conservative parallel discrete-event kernel.
 *
 * One simulated machine's nodes are sharded into P spatial partitions,
 * each driven by its own EventQueue that preserves the deterministic
 * (tick, priority, seq) order *within* the partition. Partitions
 * synchronize with a bounded-window conservative protocol: the
 * coordinator picks the globally earliest pending tick T, every
 * partition executes its tick-T events concurrently, and a barrier
 * separates windows. The protocol is safe because the only
 * cross-partition influence is the interconnect, whose minimum
 * cross-node latency (Topology::minHopLookahead, >= 1 network clock)
 * guarantees that nothing a partition does at tick T can affect another
 * partition before tick T + lookahead — i.e. never inside the current
 * window.
 *
 * The fabric itself spans partitions, but only through its boundary
 * links, which carry a flit (or a credit return) in one network cycle
 * — exactly the lookahead. So each window every partition, through the
 * ParallelCoupling interface, first lands what its neighbours staged
 * for it last window, then advances its own routers one cycle (staging
 * whatever crosses a boundary), then executes its events: no partition
 * reads another's state inside a window, and each window crosses one
 * barrier. The coupling's exactness argument — why the result is
 * bit-identical to the serial network tick for any thread count — is
 * in docs/PERFORMANCE.md §4.
 *
 * The window tail (events at priority EventPriority::stats and above:
 * telemetry samplers, monitors) runs serially on the coordinator inside
 * that one barrier, after every partition has arrived and before any is
 * released — those observers read machine-wide state and are rare, so
 * serializing them costs nothing and keeps their view identical to the
 * serial kernel's.
 */

#ifndef LIMITLESS_SIM_PARALLEL_KERNEL_HH
#define LIMITLESS_SIM_PARALLEL_KERNEL_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/types.hh"

namespace limitless
{

class EventQueue;

/**
 * Host-side utilization accounting for one parallel run: window counts,
 * per-partition barrier-wait time (the load-imbalance signal), and the
 * serial stats-tail fraction. Purely observational — collecting it
 * never changes simulated results.
 *
 * Write/read discipline: the scalar fields are written only by the
 * coordinator (partition 0) and read in the serial window tail
 * (telemetry samplers) or after run() — never concurrently with a
 * writer. Each partition's barrierWaitNs is written only by that
 * partition's thread, after it wakes from the barrier, so a sampler in
 * a later tail sees it — but the field stays a relaxed atomic, the
 * cheap way to make any observer's read well-defined.
 */
struct ParallelKernelStats
{
    struct alignas(64) Part
    {
        std::atomic<std::uint64_t> barrierWaitNs{0};
        /** Events executed by this partition; filled by the machine
         *  after run() from the queue's executed counter. */
        std::uint64_t events = 0;
    };

    explicit ParallelKernelStats(unsigned partitions)
        : partitions(partitions),
          parts(std::make_unique<Part[]>(partitions))
    {
    }

    unsigned partitions;
    std::unique_ptr<Part[]> parts;

    std::uint64_t windows = 0;        ///< windows executed
    std::uint64_t coupledWindows = 0; ///< windows that ran the fabric
    Tick lookahead = 0;               ///< window bound (min hop latency)
    double serialTailSeconds = 0.0;   ///< coordinator-only stats tail
    double runSeconds = 0.0;          ///< whole run() wall time

    double
    barrierWaitSeconds(unsigned p) const
    {
        return static_cast<double>(
                   parts[p].barrierWaitNs.load(std::memory_order_relaxed)) *
               1e-9;
    }
};

/**
 * The one simulation object that spans partitions (the wormhole
 * fabric). Its per-window work is one step the kernel runs on every
 * partition's thread; work that must be serial (stat-shard folds,
 * next-tick computation, landing staged effects early) runs on the
 * coordinator inside the window barrier while the workers are parked.
 */
class ParallelCoupling
{
  public:
    virtual ~ParallelCoupling() = default;

    /** Earliest tick at which the coupling has work; maxTick = idle.
     *  Only called from the coordinator between windows. */
    virtual Tick nextCoupledTick() const = 0;

    /**
     * Partition @p p's share of one window, before its events run:
     * land every effect other partitions staged for it last window,
     * then, if @p coupled, advance its own share one cycle, staging
     * every effect on another partition. Must not read or write state
     * another partition owns.
     */
    virtual void step(unsigned p, bool coupled) = 0;

    /** Serial, coordinator only: land every staged effect now, as the
     *  next windows' steps would. The kernel calls it before observers
     *  that read machine-wide state run, and when the run stops. */
    virtual void settle() = 0;

    /**
     * Serial window epilogue on the coordinator (workers parked):
     * flush per-partition stat shards, recompute the next coupled
     * tick. @p window is the tick just executed.
     */
    virtual void coupledEpilogue(Tick window) = 0;
};

/**
 * The windowed SPMD loop. The caller's thread acts as partition 0's
 * worker *and* the coordinator; P-1 further threads are spawned for
 * the run and joined before run() returns, so a serial caller sees a
 * plain blocking call.
 */
class ParallelKernel
{
  public:
    struct Hooks
    {
        /** Runs once on each partition's thread (including the caller
         *  thread for partition 0) before the first window; the seam
         *  for thread_local setup (flight-recorder defer buffers). */
        std::function<void(unsigned p)> threadInit;

        /**
         * Runs on the coordinator after every fully-executed window.
         * Return false to stop the run (completion, max-cycles,
         * watchdog). The run also stops by itself when every queue and
         * the coupling are drained.
         */
        std::function<bool(Tick window)> onWindow;
    };

    /**
     * @param queues   one EventQueue per partition, index = partition
     * @param coupling the cross-partition fabric, or nullptr when the
     *                 partitions are fully independent
     * @param lookahead minimum cross-partition latency in ticks
     *                  (Topology::minHopLookahead); must be >= 1 or
     *                  windowed execution would be unsound
     * @param stats    optional utilization accounting, filled during
     *                 run(); nullptr keeps the loop free of clock reads
     */
    ParallelKernel(std::vector<EventQueue *> queues,
                   ParallelCoupling *coupling, Tick lookahead,
                   ParallelKernelStats *stats = nullptr);

    /** Execute windows until drained or hooks.onWindow returns false. */
    void run(const Hooks &hooks);

  private:
    std::vector<EventQueue *> _queues;
    ParallelCoupling *_coupling;
    ParallelKernelStats *_stats;
};

} // namespace limitless

#endif // LIMITLESS_SIM_PARALLEL_KERNEL_HH
