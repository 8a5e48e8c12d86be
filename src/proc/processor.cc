#include "proc/processor.hh"

#include <cassert>

#include "sim/log.hh"

namespace limitless
{

Processor::Processor(EventQueue &eq, NodeId self, CacheController &cache,
                     const ProcParams &params, std::uint64_t seed)
    : _eq(eq), _self(self), _cache(cache), _params(params),
      _rng(seed ^ (0x9c0cull + self)), _ctxs(params.contexts),
      _statOps(_stats.counter("ops", "memory operations issued")),
      _statComputeCycles(
          _stats.counter("compute_cycles", "cycles spent computing")),
      _statSwitches(_stats.counter("switches", "context switches taken")),
      _statRemoteMisses(
          _stats.counter("remote_misses", "misses that released the cpu")),
      _statThreadsFinished(
          _stats.counter("threads_done", "thread programs completed")),
      _statStallCycles(
          _stats.counter("stall_cycles", "cycles preempted by traps")),
      _statBufferedStores(_stats.counter(
          "buffered_stores", "stores retired into the store buffer")),
      _statStoreForwards(_stats.counter(
          "store_forwards", "loads forwarded from the store buffer")),
      _statFences(_stats.counter("fences", "memory fences executed"))
{
    assert(params.contexts >= 1);
}

Tick
Processor::now() const
{
    return _eq.now();
}

NodeId
ThreadApi::nodeId() const
{
    return _proc->nodeId();
}

Tick
ThreadApi::now() const
{
    return _proc->now();
}

Rng &
ThreadApi::rng()
{
    return _proc->rng();
}

void
Processor::spawn(ThreadFn fn)
{
    for (auto &ctx : _ctxs) {
        if (ctx.state == CtxState::idle && !ctx.fn) {
            ctx.fn = std::move(fn);
            return;
        }
    }
    panic("node %u: more threads than hardware contexts", _self);
}

void
Processor::start()
{
    for (unsigned i = 0; i < _ctxs.size(); ++i) {
        Ctx &ctx = _ctxs[i];
        if (!ctx.fn)
            continue;
        ctx.api = std::make_unique<ThreadApi>(*this, i);
        ctx.task = ctx.fn(*ctx.api);
        ctx.state = CtxState::ready;
        ++_live;
    }
    maybeDispatch();
}

void
Processor::stallFor(Tick cycles)
{
    const Tick base = std::max(_stallUntil, _eq.now());
    _stallUntil = base + cycles;
    _stallAccum += cycles;
    _statStallCycles += cycles;
}

void
Processor::issueMem(unsigned ctx_id, const MemOp &op,
                    std::coroutine_handle<> h, std::uint64_t *result)
{
    Ctx &ctx = _ctxs[ctx_id];
    assert(ctx.state == CtxState::running);
    ctx.resumePoint = h;
    ctx.resultSlot = result;
    ctx.state = CtxState::waiting;
    _statOps += 1;
    if (_sink)
        _sink->onMemOp(_self, op);

    if (_params.memoryModel == MemoryModel::weak) {
        if (op.kind == MemOpKind::load) {
            std::uint64_t fwd = 0;
            if (forwardFromStoreBuffer(op, fwd)) {
                // Same-thread read of a buffered store: forward.
                _statStoreForwards += 1;
                if (result)
                    *result = fwd;
                scheduleCpu(_eq.now() + 1,
                            [this, ctx_id]() { resumeCtx(ctx_id); });
                return;
            }
        } else if (op.kind == MemOpKind::store) {
            if (tryBufferStore(ctx_id, op, h, result))
                return; // retired into the buffer; thread continues
            return;     // buffer full: thread parked until a slot frees
        } else {
            // Atomics have acquire/release semantics: drain first.
            if (storeBufferOccupancy() != 0) {
                assert(!_stalledOp);
                _stalledOp = StalledOp{op, h, result, ctx_id, true};
                return;
            }
        }
    }

    const auto klass =
        _cache.access(op, [this, ctx_id](std::uint64_t value) {
            onMemComplete(ctx_id, value);
        });

    // Context switches are taken only on memory requests that need the
    // interconnection network (paper Section 2): remote misses.
    if (klass == CacheController::IssueClass::miss &&
        _remoteCheck(op.addr)) {
        _statRemoteMisses += 1;
        _bound = -1; // release the pipeline; another context may run
    }
    // Hits and local misses keep the pipeline bound to this context.
}

bool
Processor::_remoteCheck(Addr addr) const
{
    return _cache.homeOf(addr) != _self;
}

std::size_t
Processor::storeBufferOccupancy() const
{
    return _storeBuffer.size() + _inFlightStores.size();
}

bool
Processor::forwardFromStoreBuffer(const MemOp &op, std::uint64_t &value)
{
    // Youngest matching store wins: scan the unissued FIFO first (newest
    // at the back), then the in-flight set (issued in FIFO order).
    for (std::size_t i = _storeBuffer.size(); i-- > 0;) {
        if (_storeBuffer[i].addr == op.addr) {
            value = _storeBuffer[i].value;
            return true;
        }
    }
    for (auto it = _inFlightStores.rbegin(); it != _inFlightStores.rend();
         ++it) {
        if (it->second.addr == op.addr) {
            value = it->second.value;
            return true;
        }
    }
    return false;
}

bool
Processor::tryBufferStore(unsigned ctx_id, const MemOp &op,
                          std::coroutine_handle<> h, std::uint64_t *result)
{
    if (storeBufferOccupancy() >= _params.storeBufferDepth) {
        // Buffer full: the storing thread stalls until a slot frees.
        assert(!_stalledOp);
        _stalledOp = StalledOp{op, h, result, ctx_id, false};
        return false;
    }
    _storeBuffer.push_back(op);
    _statBufferedStores += 1;
    drainStoreBuffer();
    // The store's "old value" is unknown without performing the access;
    // weak-ordering stores return 0 (documented).
    if (result)
        *result = 0;
    scheduleCpu(_eq.now() + 1,
                [this, ctx_id]() { resumeCtx(ctx_id); });
    return true;
}

void
Processor::drainStoreBuffer()
{
    // Issue every queued store (they proceed concurrently; the cache
    // serializes same-line accesses, preserving same-address order).
    while (!_storeBuffer.empty()) {
        const MemOp op = _storeBuffer.front();
        _storeBuffer.pop_front();
        const std::uint64_t id = _nextStoreId++;
        _inFlightStores.emplace_back(id, op);
        _cache.access(op, [this, id](std::uint64_t) {
            onBufferedStoreDone(id);
        });
    }
}

void
Processor::onBufferedStoreDone(std::uint64_t id)
{
    for (auto it = _inFlightStores.begin(); it != _inFlightStores.end();
         ++it) {
        if (it->first == id) {
            _inFlightStores.erase(it);
            break;
        }
    }

    // A thread stalled on a full buffer can retire its store now.
    if (_stalledOp && !_stalledOp->isAtomic) {
        StalledOp stalled = *_stalledOp;
        _stalledOp.reset();
        _storeBuffer.push_back(stalled.op);
        _statBufferedStores += 1;
        if (stalled.result)
            *stalled.result = 0;
        const unsigned ctx_id = stalled.ctx;
        drainStoreBuffer();
        scheduleCpu(_eq.now() + 1,
                    [this, ctx_id]() { resumeCtx(ctx_id); });
    }

    if (storeBufferOccupancy() != 0)
        return;

    // Buffer empty: release fences and any drain-waiting atomic.
    if (_stalledOp && _stalledOp->isAtomic) {
        StalledOp stalled = *_stalledOp;
        _stalledOp.reset();
        _cache.access(stalled.op,
                      [this, ctx = stalled.ctx](std::uint64_t value) {
                          onMemComplete(ctx, value);
                      });
        if (_cache.homeOf(stalled.op.addr) != _self) {
            // (Context keeps the pipeline: the thread was already
            // accounted as waiting when it stalled.)
        }
    }
    if (!_fenceWaiters.empty()) {
        auto waiters = std::move(_fenceWaiters);
        auto ctxs = std::move(_fenceWaiterCtx);
        _fenceWaiters.clear();
        _fenceWaiterCtx.clear();
        for (std::size_t i = 0; i < waiters.size(); ++i) {
            const unsigned ctx_id = ctxs[i];
            scheduleCpu(_eq.now(),
                        [this, ctx_id]() { resumeCtx(ctx_id); });
        }
    }
}

bool
Processor::fenceReady() const
{
    return _params.memoryModel == MemoryModel::sequential ||
           storeBufferOccupancy() == 0;
}

void
Processor::issueFence(unsigned ctx_id, std::coroutine_handle<> h)
{
    Ctx &ctx = _ctxs[ctx_id];
    assert(ctx.state == CtxState::running);
    ctx.resumePoint = h;
    ctx.state = CtxState::waiting;
    _statFences += 1;
    _fenceWaiters.push_back(h);
    _fenceWaiterCtx.push_back(ctx_id);
}

void
Processor::issueCompute(unsigned ctx_id, Tick cycles,
                        std::coroutine_handle<> h)
{
    Ctx &ctx = _ctxs[ctx_id];
    assert(ctx.state == CtxState::running);
    ctx.resumePoint = h;
    ctx.state = CtxState::computing;
    _statComputeCycles += cycles;
    if (_sink)
        _sink->onCompute(_self, cycles);
    scheduleCpu(_eq.now() + cycles, [this, ctx_id]() {
        assert(_bound == static_cast<int>(ctx_id));
        resumeCtx(ctx_id);
    });
}

void
Processor::onMemComplete(unsigned ctx_id, std::uint64_t value)
{
    Ctx &ctx = _ctxs[ctx_id];
    assert(ctx.state == CtxState::waiting);
    if (ctx.resultSlot)
        *ctx.resultSlot = value;

    if (_bound == static_cast<int>(ctx_id)) {
        // Hit or local miss: the pipeline waited for this context.
        scheduleCpu(_eq.now(), [this, ctx_id]() { resumeCtx(ctx_id); });
    } else {
        ctx.state = CtxState::ready;
        maybeDispatch();
    }
}

void
Processor::maybeDispatch()
{
    if (_bound != -1 || _dispatchScheduled)
        return;
    bool any_ready = false;
    for (const auto &ctx : _ctxs) {
        if (ctx.state == CtxState::ready) {
            any_ready = true;
            break;
        }
    }
    if (!any_ready)
        return;
    _dispatchScheduled = true;
    scheduleCpu(_eq.now(), [this]() {
        _dispatchScheduled = false;
        dispatchNow();
    });
}

void
Processor::dispatchNow()
{
    if (_bound != -1)
        return;
    // Round-robin among ready contexts, starting after the last one run.
    int pick = -1;
    for (unsigned k = 1; k <= _ctxs.size(); ++k) {
        const unsigned i = (_lastDispatched + k) % _ctxs.size();
        if (_ctxs[i].state == CtxState::ready) {
            pick = static_cast<int>(i);
            break;
        }
    }
    if (pick == -1)
        return;

    Tick cost = 0;
    if (_haveLastRun && _lastDispatched != static_cast<unsigned>(pick)) {
        cost = _params.contextSwitchCycles;
        _statSwitches += 1;
    }
    _bound = pick; // reserve the pipeline across the switch delay
    if (cost == 0) {
        resumeCtx(pick);
    } else {
        scheduleCpu(_eq.now() + cost,
                    [this, pick]() { resumeCtx(pick); });
    }
}

void
Processor::resumeCtx(unsigned ctx_id)
{
    Ctx &ctx = _ctxs[ctx_id];
    assert(ctx.state == CtxState::ready ||
           ctx.state == CtxState::waiting ||
           ctx.state == CtxState::computing);
    _bound = static_cast<int>(ctx_id);
    _lastDispatched = ctx_id;
    _haveLastRun = true;
    ctx.state = CtxState::running;

    if (!ctx.started) {
        ctx.started = true;
        ctx.task.start();
    } else {
        ctx.resumePoint.resume();
    }

    if (ctx.task.done()) {
        ctx.task.rethrowIfFailed();
        ctx.state = CtxState::finished;
        assert(_live > 0);
        --_live;
        _statThreadsFinished += 1;
        _bound = -1;
        if (_onThreadDone)
            _onThreadDone();
        maybeDispatch();
        return;
    }
    if (_bound == -1) {
        // The coroutine released the pipeline (remote miss).
        maybeDispatch();
    }
}

} // namespace limitless
