/**
 * @file
 * The parallel kernel's window barrier: the coordinator's tail runs on
 * partition 0's thread with every worker's writes visible, rounds stay
 * fast whether the barrier spins or blocks, and a barrier with more
 * parties than hardware threads blocks instead of spinning.
 *
 * The per-round data is plain (non-atomic) memory on purpose: under
 * ThreadSanitizer any ordering the barrier fails to provide is a
 * reported race, not just a flaky value.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "sim/window_barrier.hh"

namespace limitless
{
namespace
{

struct RoundResult
{
    bool tailOnCaller = true;    ///< every tail ran on partition 0's thread
    bool tailSawWrites = true;   ///< ... and saw this round's writes
    bool workersSawTail = true;  ///< every worker saw the last tail's write
    double seconds = 0.0;
};

/** @p rounds windows over @p parties threads; the calling thread is
 *  partition 0, as in ParallelKernel::run. */
RoundResult
runRounds(unsigned parties, unsigned rounds)
{
    WindowBarrier bar(parties);
    struct alignas(64) Slot
    {
        std::uint64_t round = 0;
        bool sawTail = true;
    };
    std::vector<Slot> slots(parties);
    std::uint64_t published = 0; // written only inside the tail
    RoundResult res;
    const std::thread::id caller = std::this_thread::get_id();

    auto body = [&](unsigned p) {
        for (std::uint64_t r = 1; r <= rounds; ++r) {
            if (published != r - 1)
                slots[p].sawTail = false;
            slots[p].round = r;
            if (p != 0) {
                bar.arriveAndWait();
                continue;
            }
            bar.arriveAndRun([&] {
                if (std::this_thread::get_id() != caller)
                    res.tailOnCaller = false;
                for (const Slot &s : slots)
                    if (s.round != r)
                        res.tailSawWrites = false;
                published = r;
            });
        }
    };

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    for (unsigned p = 1; p < parties; ++p)
        workers.emplace_back(body, p);
    body(0);
    for (std::thread &w : workers)
        w.join();
    res.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    for (const Slot &s : slots)
        res.workersSawTail = res.workersSawTail && s.sawTail;
    return res;
}

TEST(WindowBarrier, TailRunsOnCoordinatorAndSeesEveryWrite)
{
    const RoundResult r = runRounds(4, 2000);
    EXPECT_TRUE(r.tailOnCaller);
    EXPECT_TRUE(r.tailSawWrites);
    EXPECT_TRUE(r.workersSawTail);
}

/** 10k windows at 2, 4 and 16 parties. The bound is loose (a sanitizer
 *  build on a shared runner must pass) but catches the failure mode it
 *  exists for: spinning waiters on an oversubscribed host stall each
 *  round for a scheduler time slice, which is minutes over 10k rounds. */
TEST(WindowBarrier, TenThousandRoundsFinishPromptly)
{
    for (unsigned parties : {2u, 4u, 16u}) {
        const RoundResult r = runRounds(parties, 10000);
        EXPECT_TRUE(r.tailOnCaller) << "parties=" << parties;
        EXPECT_TRUE(r.tailSawWrites) << "parties=" << parties;
        EXPECT_TRUE(r.workersSawTail) << "parties=" << parties;
        EXPECT_LT(r.seconds, 30.0) << "parties=" << parties;
    }
}

TEST(WindowBarrier, OversubscriptionBlocksInsteadOfSpinning)
{
    const unsigned hw = std::thread::hardware_concurrency();
    EXPECT_FALSE(WindowBarrier(hw + 1).spins());
    EXPECT_FALSE(WindowBarrier(4 * hw + 1).spins());
    if (hw >= 2) {
        EXPECT_TRUE(WindowBarrier(2).spins());
    }
    // The blocking path completes rounds correctly too.
    const RoundResult r = runRounds(hw + 1, 1000);
    EXPECT_TRUE(r.tailSawWrites);
    EXPECT_TRUE(r.workersSawTail);
}

} // namespace
} // namespace limitless
