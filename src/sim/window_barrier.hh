/**
 * @file
 * The parallel kernel's once-per-window barrier.
 *
 * P parties arrive once per window. Partition 0 (the coordinator) waits
 * for the other P-1, runs the serial window tail while they are parked,
 * and only then releases them — so the tail sees every worker's writes
 * and every worker sees the tail's. Unlike a std::barrier completion,
 * which runs on whichever thread arrives last, the tail always runs on
 * partition 0's thread, whose thread-local observer state the tail's
 * events expect.
 *
 * How a party waits is decided from the host, not configured: when every
 * party can own a hardware thread (P <= hardware_concurrency) waiting
 * spins on the CPU's pause hint, yielding now and then and falling back
 * to std::atomic::wait only after a long spin (a stopped peer); with
 * more parties than hardware threads a spinning waiter would burn the
 * very core the straggler it waits for needs, so it blocks at once. (A
 * pure spin barrier measured 18x slower than blocking at 16 parties on
 * 4 cores.)
 */

#ifndef LIMITLESS_SIM_WINDOW_BARRIER_HH
#define LIMITLESS_SIM_WINDOW_BARRIER_HH

#include <atomic>
#include <cstdint>
#include <thread>

namespace limitless
{

class WindowBarrier
{
  public:
    explicit WindowBarrier(unsigned parties)
        : _others(parties - 1),
          _spin(parties <= std::thread::hardware_concurrency())
    {
    }

    WindowBarrier(const WindowBarrier &) = delete;
    WindowBarrier &operator=(const WindowBarrier &) = delete;

    /** True when waiters spin before blocking; false when they block at
     *  once (more parties than hardware threads). */
    bool spins() const { return _spin; }

    /** Every party but the coordinator: arrive, then wait until the
     *  coordinator has run the tail and released the window. */
    void
    arriveAndWait()
    {
        // Stable until every worker has arrived, this one included.
        const std::uint32_t gen = _generation.load(std::memory_order_relaxed);
        if (_arrived.fetch_add(1, std::memory_order_release) + 1 == _others)
            _arrived.notify_one();
        awaitChange(_generation, gen);
    }

    /** The coordinator: wait for every other party, run @p tail with
     *  them parked, release them. */
    template <class Tail>
    void
    arriveAndRun(Tail &&tail)
    {
        for (unsigned a; (a = _arrived.load(std::memory_order_acquire)) !=
                         _others;)
            awaitChange(_arrived, a);
        // No worker can arrive again before the release below.
        _arrived.store(0, std::memory_order_relaxed);
        tail();
        _generation.fetch_add(1, std::memory_order_release);
        _generation.notify_all();
    }

  private:
    /**
     * A spinning waiter yields every yieldEvery iterations, so it never
     * keeps a runnable peer that shares its CPU off it (a pure pause
     * loop did, after the host had sat idle: runs 6x slower). It
     * blocks only after ~spinLimit iterations, ~0.1 s on a 4-core
     * x86 VM: a peer stopped, not merely slow. A short budget invites
     * a vicious circle — once one waiter sleeps, waking its halted
     * virtual CPU can take longer than the others spin, so they sleep
     * too.
     */
    static constexpr unsigned spinLimit = 1u << 22;
    static constexpr unsigned yieldEvery = 64;

    static void
    cpuRelax()
    {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield");
#endif
    }

    /** Return once @p a no longer holds @p old (acquire). */
    template <class T>
    void
    awaitChange(const std::atomic<T> &a, T old) const
    {
        if (_spin) {
            for (unsigned i = 1; i <= spinLimit; ++i) {
                if (a.load(std::memory_order_acquire) != old)
                    return;
                if (i % yieldEvery == 0)
                    std::this_thread::yield();
                else
                    cpuRelax();
            }
        }
        a.wait(old, std::memory_order_acquire);
    }

    const unsigned _others; ///< parties minus the coordinator
    const bool _spin;
    alignas(64) std::atomic<unsigned> _arrived{0};
    alignas(64) std::atomic<std::uint32_t> _generation{0};
};

} // namespace limitless

#endif // LIMITLESS_SIM_WINDOW_BARRIER_HH
