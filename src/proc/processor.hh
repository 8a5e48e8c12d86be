/**
 * @file
 * SPARCLE-like processor model.
 *
 * The processor executes workload "thread programs" written as C++20
 * coroutines (sim/task.hh). It models the Alewife timing interface rather
 * than an instruction set:
 *
 *  - up to 4 hardware register contexts; a context switch costs 11 cycles
 *    and is taken only on memory requests that need the interconnect
 *    (remote misses) — paper Section 2;
 *  - explicit compute() costs stand in for instruction execution;
 *  - a fast synchronous trap architecture: trap code (the LimitLESS
 *    handler) preempts the processor, modelled by stallFor(), which
 *    pushes back every future dispatch of application work.
 */

#ifndef LIMITLESS_PROC_PROCESSOR_HH
#define LIMITLESS_PROC_PROCESSOR_HH

#include <algorithm>
#include <coroutine>
#include <functional>
#include <optional>
#include <memory>
#include <vector>

#include "cache/cache_controller.hh"
#include "cache/mem_op.hh"
#include "sim/event_queue.hh"
#include "sim/ring.hh"
#include "sim/rng.hh"
#include "sim/task.hh"
#include "stats/stats.hh"

namespace limitless
{

class Processor;

/** Observer of a processor's issued operation stream (trace capture). */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void onMemOp(NodeId node, const MemOp &op) = 0;
    virtual void onCompute(NodeId node, Tick cycles) = 0;
    virtual void onAnnotate(NodeId node, std::uint64_t tag) = 0;
};

namespace proc_detail
{
struct MemAwaitable;
struct ComputeAwaitable;
struct FenceAwaitable;
}

/** Memory consistency model (paper Section 2: Alewife enforces
 *  sequential consistency, "but the LimitLESS directory scheme can also
 *  be used with a weakly-ordered memory model"). */
enum class MemoryModel
{
    /** Every access blocks the issuing thread until globally performed. */
    sequential,
    /**
     * Plain stores retire into a FIFO store buffer and drain in the
     * background; loads forward from the buffer; atomics and fences
     * drain it first. Release consistency for barrier/lock-synchronized
     * programs.
     */
    weak,
};

/** Processor tuning. */
struct ProcParams
{
    unsigned contexts = 4;        ///< hardware register frames
    Tick contextSwitchCycles = 11;
    Tick trapEntryCycles = 5;     ///< synchronous trap dispatch cost
    MemoryModel memoryModel = MemoryModel::sequential;
    unsigned storeBufferDepth = 8; ///< weak ordering only
};

/**
 * Per-thread environment handed to workload coroutines; provides the
 * awaitable memory operations.
 */
class ThreadApi
{
  public:
    ThreadApi(Processor &proc, unsigned ctx) : _proc(&proc), _ctx(ctx) {}

    /** Awaitable returning the loaded word. */
    auto read(Addr a);
    /** Awaitable; returns the overwritten word. */
    auto write(Addr a, std::uint64_t v);
    /** Awaitable atomic fetch-and-add; returns the old word. */
    auto fetchAdd(Addr a, std::uint64_t delta);
    /** Awaitable atomic swap; returns the old word. */
    auto swap(Addr a, std::uint64_t v);
    /** Awaitable: occupy the processor for @p cycles. */
    auto compute(Tick cycles);

    /** Zero-cost annotation visible to an attached TraceSink (used by
     *  synchronization libraries to mark episode boundaries). */
    void annotate(std::uint64_t tag);

    /** Awaitable memory fence: under weak ordering, blocks until every
     *  buffered store is globally performed. No-op under SC. */
    auto fence();

    NodeId nodeId() const;
    unsigned contextId() const { return _ctx; }
    Tick now() const;
    Rng &rng();

  private:
    friend class Processor;
    Processor *_proc;
    unsigned _ctx;
};

/** One simulated processor with multiple hardware contexts. */
class Processor
{
  public:
    using ThreadFn = std::function<Task<>(ThreadApi &)>;

    Processor(EventQueue &eq, NodeId self, CacheController &cache,
              const ProcParams &params, std::uint64_t seed);

    /** Bind a thread program to the next free hardware context. */
    void spawn(ThreadFn fn);

    /** Kick off all spawned threads (call once, at simulation start). */
    void start();

    /** Preempt application work for @p cycles (trap handlers, Ts). */
    void stallFor(Tick cycles);

    /** Invoked each time a thread program runs to completion. */
    void setOnThreadDone(std::function<void()> fn)
    {
        _onThreadDone = std::move(fn);
    }

    /** Attach / detach a trace-capture sink (nullptr detaches). */
    void setTraceSink(TraceSink *sink) { _sink = sink; }
    void noteAnnotation(std::uint64_t tag)
    {
        if (_sink)
            _sink->onAnnotate(_self, tag);
    }

    bool allDone() const { return _live == 0; }
    unsigned liveThreads() const { return _live; }
    NodeId nodeId() const { return _self; }
    Tick now() const;
    Rng &rng() { return _rng; }
    StatSet &stats() { return _stats; }
    ProcParams params() const { return _params; }

    /** Total trap-preemption cycles accumulated (for utilization). */
    Tick stallCycles() const { return _stallAccum; }

  private:
    friend class ThreadApi;
    friend struct proc_detail::MemAwaitable;
    friend struct proc_detail::ComputeAwaitable;
    friend struct proc_detail::FenceAwaitable;

    enum class CtxState
    {
        idle,      ///< no thread bound
        ready,     ///< resumable, waiting for the pipeline
        running,   ///< currently executing (or bound-waiting on a hit)
        waiting,   ///< blocked on a memory transaction
        computing, ///< executing a compute() block
        finished,
    };

    struct Ctx
    {
        Task<> task;
        std::unique_ptr<ThreadApi> api;
        ThreadFn fn;
        CtxState state = CtxState::idle;
        std::coroutine_handle<> resumePoint;
        std::uint64_t *resultSlot = nullptr;
        bool started = false;
    };

    // Awaitable entry points.
    void issueMem(unsigned ctx, const MemOp &op,
                  std::coroutine_handle<> h, std::uint64_t *result);
    void issueCompute(unsigned ctx, Tick cycles, std::coroutine_handle<> h);
    bool fenceReady() const;
    void issueFence(unsigned ctx, std::coroutine_handle<> h);

    // Weak-ordering store buffer.
    bool tryBufferStore(unsigned ctx, const MemOp &op,
                        std::coroutine_handle<> h, std::uint64_t *result);
    bool forwardFromStoreBuffer(const MemOp &op, std::uint64_t &value);
    void drainStoreBuffer();
    void onBufferedStoreDone(std::uint64_t id);
    std::size_t storeBufferOccupancy() const;

    void onMemComplete(unsigned ctx, std::uint64_t value);
    void resumeCtx(unsigned ctx);
    void maybeDispatch();
    void dispatchNow();
    /**
     * Schedule a cpu-priority step, deferring past any active stall.
     * Templated on the callable so the capture lands directly in the
     * event entry's inline storage — no std::function box per step.
     */
    template <typename F>
    void
    scheduleCpu(Tick when, F fn)
    {
        const Tick target = std::max(when, _stallUntil);
        auto step = [this, fn = std::move(fn)]() mutable {
            if (_eq.now() < _stallUntil) {
                // A trap extended the stall after we were scheduled.
                scheduleCpu(_stallUntil, std::move(fn));
                return;
            }
            fn();
        };
        static_assert(EventQueue::Callback::fitsInline<decltype(step)>,
                      "cpu step event must not heap-allocate");
        _eq.schedule(target, std::move(step), EventPriority::cpu);
    }

    bool _remoteCheck(Addr addr) const;

    EventQueue &_eq;
    NodeId _self;
    CacheController &_cache;
    ProcParams _params;
    Rng _rng;

    std::vector<Ctx> _ctxs;
    std::function<void()> _onThreadDone;
    TraceSink *_sink = nullptr;

    // Weak-ordering state: FIFO store buffer + waiters. Independent
    // stores drain concurrently (weak ordering does not order stores to
    // different addresses); same-line stores serialize in the cache.
    Ring<MemOp> _storeBuffer;
    std::vector<std::pair<std::uint64_t, MemOp>> _inFlightStores;
    std::uint64_t _nextStoreId = 0;
    std::vector<std::coroutine_handle<>> _fenceWaiters;
    std::vector<unsigned> _fenceWaiterCtx;
    /** A thread stalled on a full buffer (store) or on a drain (atomic). */
    struct StalledOp
    {
        MemOp op;
        std::coroutine_handle<> resume;
        std::uint64_t *result;
        unsigned ctx;
        bool isAtomic;
    };
    std::optional<StalledOp> _stalledOp;

    int _bound = -1;      ///< context currently holding the pipeline
    unsigned _live = 0;
    unsigned _lastDispatched = 0;
    bool _haveLastRun = false;
    Tick _stallUntil = 0;
    Tick _stallAccum = 0;
    bool _dispatchScheduled = false;

    StatSet _stats{"proc"};
    Counter &_statOps;
    Counter &_statComputeCycles;
    Counter &_statSwitches;
    Counter &_statRemoteMisses;
    Counter &_statThreadsFinished;
    Counter &_statStallCycles;
    Counter &_statBufferedStores;
    Counter &_statStoreForwards;
    Counter &_statFences;
};

// ----------------------------------------------------------------------
// Awaitable definitions (header-only: they capture coroutine handles).
// ----------------------------------------------------------------------

namespace proc_detail
{

struct MemAwaitable
{
    Processor *proc;
    unsigned ctx;
    MemOp op;
    std::uint64_t result = 0;

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        proc->issueMem(ctx, op, h, &result);
    }

    std::uint64_t await_resume() const noexcept { return result; }
};

struct ComputeAwaitable
{
    Processor *proc;
    unsigned ctx;
    Tick cycles;

    bool await_ready() const noexcept { return cycles == 0; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        proc->issueCompute(ctx, cycles, h);
    }

    void await_resume() const noexcept {}
};

struct FenceAwaitable
{
    Processor *proc;
    unsigned ctx;

    bool await_ready() const noexcept { return proc->fenceReady(); }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        proc->issueFence(ctx, h);
    }

    void await_resume() const noexcept {}
};

} // namespace proc_detail

inline auto
ThreadApi::read(Addr a)
{
    return proc_detail::MemAwaitable{_proc, _ctx,
                                     MemOp{MemOpKind::load, a, 0}};
}

inline auto
ThreadApi::write(Addr a, std::uint64_t v)
{
    return proc_detail::MemAwaitable{_proc, _ctx,
                                     MemOp{MemOpKind::store, a, v}};
}

inline auto
ThreadApi::fetchAdd(Addr a, std::uint64_t delta)
{
    return proc_detail::MemAwaitable{_proc, _ctx,
                                     MemOp{MemOpKind::fetchAdd, a, delta}};
}

inline auto
ThreadApi::swap(Addr a, std::uint64_t v)
{
    return proc_detail::MemAwaitable{_proc, _ctx,
                                     MemOp{MemOpKind::swap, a, v}};
}

inline auto
ThreadApi::compute(Tick cycles)
{
    return proc_detail::ComputeAwaitable{_proc, _ctx, cycles};
}

inline void
ThreadApi::annotate(std::uint64_t tag)
{
    _proc->noteAnnotation(tag);
}

inline auto
ThreadApi::fence()
{
    return proc_detail::FenceAwaitable{_proc, _ctx};
}

} // namespace limitless

#endif // LIMITLESS_PROC_PROCESSOR_HH
