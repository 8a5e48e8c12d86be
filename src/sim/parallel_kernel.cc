#include "sim/parallel_kernel.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/host_profiler.hh"
#include "sim/event_queue.hh"
#include "sim/log.hh"
#include "sim/window_barrier.hh"

namespace limitless
{

ParallelKernel::ParallelKernel(std::vector<EventQueue *> queues,
                               ParallelCoupling *coupling, Tick lookahead,
                               ParallelKernelStats *stats)
    : _queues(std::move(queues)), _coupling(coupling), _stats(stats)
{
    if (_queues.empty())
        panic("parallel kernel needs at least one partition");
    if (lookahead < 1)
        panic("parallel kernel needs a lookahead of at least one tick "
              "(topology reported %llu): with zero cross-partition "
              "latency, same-window execution would be unsound",
              static_cast<unsigned long long>(lookahead));
    if (_stats) {
        if (_stats->partitions != _queues.size())
            panic("parallel kernel stats sized for %u partitions, run "
                  "has %zu",
                  _stats->partitions, _queues.size());
        _stats->lookahead = lookahead;
    }
}

void
ParallelKernel::run(const Hooks &hooks)
{
    using Clock = std::chrono::steady_clock;
    const unsigned P = static_cast<unsigned>(_queues.size());
    const Clock::time_point runStart = Clock::now();

    // Written only by the coordinator inside the barrier; the release
    // publishes it to every worker (and each arrival publishes the
    // workers' queue mutations to the coordinator).
    struct Window
    {
        Tick t = 0;
        bool net = false;
        bool stop = false;
    };
    Window window;

    WindowBarrier bar(P);

    // Pick the next window: the globally earliest pending tick over
    // every partition queue and the coupling. All queues align on it so
    // same-tick schedules join the walked tick's lanes exactly as they
    // would serially.
    auto publish = [&]() {
        const Tick net_t =
            _coupling ? _coupling->nextCoupledTick() : maxTick;
        Tick t = net_t;
        for (EventQueue *q : _queues)
            t = std::min(t, q->nextEventTick());
        if (t == maxTick) {
            window.stop = true; // drained everywhere: the run is over
            return;
        }
        for (EventQueue *q : _queues)
            q->advanceTo(t);
        window.t = t;
        window.net = net_t == t;
    };

    // The serial tail, run by the coordinator inside the barrier after
    // window.t executed below stats priority on every partition (or,
    // for the start-up crossing, before any window): fold the
    // coupling's stat shards first so the samplers and monitors in the
    // stats remainder observe exactly the serial kernel's counter
    // values, then pick the next window. Returns its own duration in ns
    // when timing, so the coordinator's barrier wait excludes it.
    auto tail = [&](bool executed) -> std::uint64_t {
        PROF_SCOPE("pk.tail");
        const Clock::time_point tail0 =
            _stats ? Clock::now() : Clock::time_point{};
        if (executed) {
            const Tick t = window.t;
            if (_stats) {
                _stats->windows += 1;
                if (window.net)
                    _stats->coupledWindows += 1;
            }
            if (_coupling) {
                // Observers read fabric state (the peak-depth gauge), so
                // when any is due this tick, land the staged effects
                // first. A queue stopped mid-tick holds only events at
                // or above stats priority.
                bool observers_due = false;
                for (EventQueue *q : _queues)
                    observers_due |= q->nextEventTick() == t;
                if (observers_due)
                    _coupling->settle();
                _coupling->coupledEpilogue(t);
            }
            for (EventQueue *q : _queues)
                q->runTickRemainder(t);
            if (hooks.onWindow && !hooks.onWindow(t))
                window.stop = true;
        }
        if (!window.stop)
            publish();
        if (window.stop && _coupling)
            _coupling->settle(); // nothing stays staged past the run
        if (!_stats)
            return 0;
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - tail0);
        _stats->serialTailSeconds += std::chrono::duration<double>(ns).count();
        return static_cast<std::uint64_t>(ns.count());
    };

    // The window's one barrier crossing, optionally timed into the
    // partition's wait counter: a partition that always arrives last
    // waits ~0 and is the bottleneck; large waits mark partitions
    // starved by imbalance.
    auto arrive = [&](unsigned p, bool executed) {
        if (!_stats) {
            if (p == 0)
                bar.arriveAndRun([&] { tail(executed); });
            else
                bar.arriveAndWait();
            return;
        }
        PROF_SCOPE("pk.barrier");
        const Clock::time_point t0 = Clock::now();
        std::uint64_t tail_ns = 0;
        if (p == 0)
            bar.arriveAndRun([&] { tail_ns = tail(executed); });
        else
            bar.arriveAndWait();
        const auto waited =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0);
        _stats->parts[p].barrierWaitNs.fetch_add(
            static_cast<std::uint64_t>(waited.count()) - tail_ns,
            std::memory_order_relaxed);
    };

    auto body = [&](unsigned p) {
        PROF_SCOPE("pk.worker");
        if (hooks.threadInit)
            hooks.threadInit(p);
        arrive(p, false); // start-up: the tail publishes the first window
        while (!window.stop) {
            if (_coupling)
                _coupling->step(p, window.net);
            {
                PROF_SCOPE("pk.exec");
                _queues[p]->runTickBelow(window.t, EventPriority::stats);
            }
            arrive(p, true);
        }
    };

    std::vector<std::thread> workers;
    workers.reserve(P - 1);
    for (unsigned p = 1; p < P; ++p)
        workers.emplace_back(body, p);
    body(0);
    for (std::thread &w : workers)
        w.join();

    if (_stats)
        _stats->runSeconds +=
            std::chrono::duration<double>(Clock::now() - runStart).count();
}

} // namespace limitless
