/**
 * @file
 * Parameterized machine-shape sweeps: line size, home mapping, cache
 * size (down to pathological), hardware contexts, memory model, and IPI
 * queue capacity. Every shape must run the verifying workloads to
 * completion with coherence intact — configuration-space robustness.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "harness/experiment.hh"
#include "machine/coherence_monitor.hh"
#include "workload/multigrid.hh"
#include "workload/random_stress.hh"

namespace limitless
{
namespace
{

struct ShapeCase
{
    unsigned lineBytes;
    HomeMapping mapping;
    std::uint64_t cacheBytes;
    unsigned contexts;
    MemoryModel model;
    std::size_t ipiCapacity;
    ProtocolParams proto;
};

std::string
shapeName(const testing::TestParamInfo<ShapeCase> &info)
{
    const ShapeCase &c = info.param;
    std::ostringstream os;
    os << "line" << c.lineBytes << "_"
       << (c.mapping == HomeMapping::interleaved ? "il" : "rg") << "_c"
       << c.cacheBytes << "_ctx" << c.contexts << "_"
       << (c.model == MemoryModel::weak ? "wo" : "sc") << "_q"
       << c.ipiCapacity << "_" << c.proto.name();
    std::string s = os.str();
    for (char &ch : s)
        if (!isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    return s;
}

// Without a PrintTo gtest prints the raw bytes of the case, struct
// padding included, into every ctest name. Print the case name instead.
void
PrintTo(const ShapeCase &c, std::ostream *os)
{
    *os << shapeName(testing::TestParamInfo<ShapeCase>(c, 0));
}

class MachineShape : public testing::TestWithParam<ShapeCase>
{
};

TEST_P(MachineShape, RandomStressVerifies)
{
    const ShapeCase &c = GetParam();
    MachineConfig cfg;
    cfg.numNodes = 12;
    cfg.lineBytes = c.lineBytes;
    cfg.mapping = c.mapping;
    cfg.cache.cacheBytes = c.cacheBytes;
    cfg.proc.contexts = c.contexts;
    cfg.proc.memoryModel = c.model;
    cfg.ipiInputCapacity = c.ipiCapacity;
    cfg.protocol = c.proto;
    cfg.seed = 19;

    Machine m(cfg);
    RandomStressParams rp;
    rp.opsPerProc = 90;
    RandomStress wl(rp);
    wl.install(m);
    const RunResult r = m.run();
    ASSERT_TRUE(r.completed);
    wl.verify(m);
    CoherenceMonitor(m).checkQuiescent();
}

TEST_P(MachineShape, MultigridVerifies)
{
    const ShapeCase &c = GetParam();
    MachineConfig cfg;
    cfg.numNodes = 12;
    cfg.lineBytes = c.lineBytes;
    cfg.mapping = c.mapping;
    cfg.cache.cacheBytes = c.cacheBytes;
    cfg.proc.contexts = c.contexts;
    cfg.proc.memoryModel = c.model;
    cfg.ipiInputCapacity = c.ipiCapacity;
    cfg.protocol = c.proto;
    cfg.seed = 19;

    Machine m(cfg);
    MultigridParams wp;
    wp.iterations = 3;
    wp.interiorLines = 5;
    Multigrid wl(wp);
    wl.install(m);
    const RunResult r = m.run();
    ASSERT_TRUE(r.completed);
    wl.verify(m);
    CoherenceMonitor(m).checkQuiescent();
}

std::vector<ShapeCase>
makeShapes()
{
    // Shapes chosen to stress specific machinery; keep the cross product
    // small and meaningful rather than exhaustive.
    const auto il = HomeMapping::interleaved;
    const auto rg = HomeMapping::ranged;
    const auto sc = MemoryModel::sequential;
    const auto wo = MemoryModel::weak;
    return {
        // Wide lines (4 words): word indexing, packet sizes.
        {32, il, 64 * 1024, 1, sc, 16, protocols::fullMap()},
        {32, il, 64 * 1024, 1, sc, 16, protocols::limitlessStall(2, 50)},
        // Ranged home mapping.
        {16, rg, 64 * 1024, 1, sc, 16, protocols::dirNB(2)},
        {16, rg, 64 * 1024, 1, sc, 16, protocols::limitlessEmulated(4)},
        // Pathologically tiny cache: constant replacement traffic.
        {16, il, 8 * 16, 1, sc, 16, protocols::fullMap()},
        {16, il, 8 * 16, 1, sc, 16, protocols::limitlessStall(1, 25)},
        {16, il, 8 * 16, 1, sc, 16, protocols::chained()},
        // Multiple hardware contexts sharing one cache.
        {16, il, 64 * 1024, 2, sc, 16, protocols::dirNB(4)},
        {16, il, 64 * 1024, 2, sc, 16, protocols::limitlessEmulated(2)},
        // Weak ordering across shapes.
        {32, il, 64 * 1024, 1, wo, 16, protocols::limitlessStall(4, 50)},
        {16, rg, 8 * 16, 1, wo, 16, protocols::dirNB(2)},
        // One-slot IPI queue: constant overflow into the receive queue.
        {16, il, 64 * 1024, 1, sc, 1, protocols::limitlessEmulated(1)},
        // Everything at once: tiny cache, two contexts, weak ordering,
        // one-slot IPI queue, one hardware pointer, full emulation.
        {16, il, 8 * 16, 2, wo, 1, protocols::limitlessEmulated(1)},
        {32, rg, 8 * 32, 2, wo, 1, protocols::limitlessEmulated(2)},
    };
}

INSTANTIATE_TEST_SUITE_P(Shapes, MachineShape,
                         testing::ValuesIn(makeShapes()), shapeName);

/** The run loop's exits — deadlock, max-cycles abort, watchdog — in
 *  both modes: the serial burst loop and, with two partitions (one
 *  node each), the window-parallel kernel. */
class MachineExit : public testing::TestWithParam<unsigned>
{
  protected:
    MachineConfig
    config() const
    {
        MachineConfig cfg;
        cfg.numNodes = 2;
        cfg.protocol = protocols::fullMap();
        cfg.simThreads = GetParam();
        return cfg;
    }
};

TEST_P(MachineExit, DrainedQueueWithLiveThreadsIsDetected)
{
    // A thread parked on an awaitable nothing will ever resume: the
    // event queue drains while the thread is still live, which the run
    // loop must report as a deadlock rather than hang.
    struct Never
    {
        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<>) noexcept {}
        void await_resume() const noexcept {}
    };
    Machine m(config());
    ASSERT_EQ(m.numPartitions(), GetParam());
    m.spawnOn(0, [](ThreadApi &t) -> Task<> {
        co_await t.compute(5);
        co_await Never{};
    });
    EXPECT_DEATH(m.run(), "deadlock");
}

TEST_P(MachineExit, MaxCyclesCapReturnsIncomplete)
{
    Machine m(config());
    ASSERT_EQ(m.numPartitions(), GetParam());
    m.spawnOn(0, [](ThreadApi &t) -> Task<> {
        for (int i = 0; i < 1000; ++i)
            co_await t.compute(100);
    });
    const RunResult r = m.run(/*max_cycles=*/500);
    EXPECT_FALSE(r.completed);
    EXPECT_LT(r.cycles, 100000u);
}

TEST_P(MachineExit, WatchdogCatchesThreadsThatNeverTouchMemory)
{
    // Computing forever keeps the queue busy but completes no memory
    // operation, so the op-count watchdog must fire.
    MachineConfig cfg = config();
    cfg.watchdogCycles = 10000;
    Machine m(cfg);
    ASSERT_EQ(m.numPartitions(), GetParam());
    m.spawnOn(0, [](ThreadApi &t) -> Task<> {
        for (;;)
            co_await t.compute(100);
    });
    EXPECT_DEATH(m.run(), "no memory operation completed");
}

INSTANTIATE_TEST_SUITE_P(SimThreads, MachineExit, testing::Values(1u, 2u),
                         [](const testing::TestParamInfo<unsigned> &info) {
                             return "t" + std::to_string(info.param);
                         });

TEST(MachineRobustness, StatsDumpMentionsEveryComponent)
{
    MachineConfig cfg;
    cfg.numNodes = 2;
    cfg.protocol = protocols::limitlessEmulated(2);
    Machine m(cfg);
    m.spawnOn(0, [&m](ThreadApi &t) -> Task<> {
        co_await t.read(m.addressMap().addrOnNode(1, 0));
    });
    ASSERT_TRUE(m.run().completed);
    std::ostringstream os;
    m.dumpStats(os);
    const std::string text = os.str();
    for (const char *needle :
         {"proc.ops", "cache.hits", "mem.rreq", "ipi.diverted",
          "handler.traps", "trap.cycles", "net.packets"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
}

} // namespace
} // namespace limitless
