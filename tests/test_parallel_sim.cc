/**
 * @file
 * Serial-vs-parallel kernel equivalence properties: the same seeded
 * workload run with --sim-threads 1, 2, 3 and 4 must produce
 * byte-identical stats JSON and telemetry (CSV + JSON sidecar). This is
 * the contract of the conservative window-parallel kernel
 * (sim/parallel_kernel.hh): thread count changes wall-clock time only,
 * never simulated behavior. Three threads split 16 nodes unevenly, and
 * the hotspot case backs the fabric up across partition boundaries, so
 * the cross-partition credit mirror decides real blocking.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "machine/coherence_monitor.hh"
#include "network/mesh_network.hh"
#include "obs/flight_recorder.hh"
#include "obs/host_profiler.hh"
#include "obs/telemetry.hh"
#include "sim/parallel_kernel.hh"
#include "workload/random_stress.hh"

namespace limitless
{
namespace
{

struct ParallelCase
{
    ProtocolParams proto;
    std::uint64_t seed;
    TopologyKind topo = TopologyKind::mesh;
    unsigned cluster = 1;
    bool hier = false;
    /** Every processor hammers one counter line through shallow input
     *  FIFOs and long packets: boundary links back up. */
    bool hotspot = false;
};

std::string
caseName(const testing::TestParamInfo<ParallelCase> &info)
{
    std::ostringstream os;
    os << info.param.proto.name() << "_s" << info.param.seed << "_"
       << topologyKindName(info.param.topo);
    if (info.param.hier)
        os << "_hier" << info.param.cluster;
    if (info.param.hotspot)
        os << "_hotspot";
    std::string s = os.str();
    for (char &c : s)
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return s;
}

// Without a PrintTo gtest prints the raw bytes of the case, struct
// padding included, into every ctest name, and padding differs from
// build to build. Print the case name instead.
void
PrintTo(const ParallelCase &c, std::ostream *os)
{
    *os << caseName(testing::TestParamInfo<ParallelCase>(c, 0));
}

/** Everything a run exports that must not depend on the thread count. */
struct RunDigest
{
    std::string stats;
    std::string telemetryCsv;
    std::string telemetryJson;
    Tick cycles = 0;
    unsigned partitions = 0;
    std::uint64_t blocked = 0;    ///< net.blocked (credit stalls)
    std::uint64_t xpartFlits = 0; ///< flits that crossed partitions
    LatencyTracker::ReplayStats replay; ///< the latency stamp replay
};

RunDigest
runOnce(const ParallelCase &pc, unsigned sim_threads,
        unsigned ops_per_proc = 120)
{
    MachineConfig cfg;
    cfg.numNodes = 16;
    cfg.protocol = pc.proto;
    cfg.seed = pc.seed;
    cfg.topology.kind = pc.topo;
    if (pc.topo == TopologyKind::expressMesh)
        cfg.topology.expressStride = 2;
    cfg.topology.clusterSize = pc.cluster;
    cfg.hier = pc.hier;
    cfg.simThreads = sim_threads;
    // Small cache so replacements happen, and a short telemetry window
    // so several sampled rows land in the CSV.
    cfg.cache.cacheBytes = 16 * 16;
    cfg.metricsInterval = 400;
    RandomStressParams rp;
    rp.opsPerProc = ops_per_proc;
    rp.counterLines = 6;
    rp.valueLines = 10;
    rp.seed = pc.seed * 7919 + 13;
    if (pc.hotspot) {
        cfg.meshParams.inputFifoFlits = 2;
        cfg.meshParams.flitsPerWord = 2;
        rp.counterLines = 1;
        rp.valueLines = 2;
        // Sample often, so peak-depth windows close while flits are
        // staged between partitions (the kernel must land them first).
        cfg.metricsInterval = 13;
    }

    FlightRecorder::instance().latency().reset();

    Machine m(cfg);
    RandomStress wl(rp);
    wl.install(m);

    const RunResult r = m.run();
    EXPECT_TRUE(r.completed);
    wl.verify(m);
    CoherenceMonitor(m).checkQuiescent();

    RunDigest d;
    d.cycles = r.cycles;
    d.partitions = m.numPartitions();
    d.replay = FlightRecorder::instance().latency().replayStats();
    // Host block (wall seconds) excluded: it is the one legitimately
    // thread-count-dependent output.
    std::ostringstream stats;
    m.dumpStatsJson(stats, r.cycles, nullptr);
    d.stats = stats.str();
    std::ostringstream csv, js;
    m.telemetry()->writeCsv(csv);
    m.telemetry()->writeJson(js);
    d.telemetryCsv = csv.str();
    d.telemetryJson = js.str();
    auto &mesh = dynamic_cast<MeshNetwork &>(m.network());
    d.blocked =
        static_cast<const Counter *>(mesh.stats().find("blocked"))->value();
    d.xpartFlits = mesh.crossPartitionFlits();
    return d;
}

/** The parallel run @p par exported exactly what @p serial did. */
void
expectSameBehavior(const RunDigest &par, const RunDigest &serial,
                   unsigned threads)
{
    // The clamp can only reduce the partition count to the number of
    // partitionable units (clusters); 16 flat nodes / 4 chips always
    // leave at least two, so the parallel kernel really ran.
    EXPECT_GT(par.partitions, 1u) << "threads=" << threads;
    EXPECT_EQ(par.cycles, serial.cycles) << "threads=" << threads;
    EXPECT_EQ(par.stats, serial.stats) << "threads=" << threads;
    EXPECT_EQ(par.telemetryCsv, serial.telemetryCsv)
        << "threads=" << threads;
    EXPECT_EQ(par.telemetryJson, serial.telemetryJson)
        << "threads=" << threads;
}

class ParallelSimProperty : public testing::TestWithParam<ParallelCase>
{
};

TEST_P(ParallelSimProperty, ThreadCountNeverChangesBehavior)
{
    const ParallelCase &pc = GetParam();
    const RunDigest serial = runOnce(pc, 1);
    ASSERT_EQ(serial.partitions, 1u);
    ASSERT_GT(serial.cycles, 0u);
    // The serial kernel applies latency stamps live, unbuffered.
    EXPECT_EQ(serial.replay.flushes, 0u);

    for (unsigned threads : {2u, 3u, 4u}) {
        const RunDigest par = runOnce(pc, threads);
        expectSameBehavior(par, serial, threads);
        if (pc.hotspot) {
            // The case only proves something if credit really ran out
            // on links the partitions share.
            EXPECT_GT(par.xpartFlits, 0u) << "threads=" << threads;
            EXPECT_GT(par.blocked, 0u) << "threads=" << threads;
        }
    }
    if (pc.hotspot) {
        // The peak-depth gauge is among the byte-compared columns; it is
        // the one the parallel kernel reconstructs from staged pushes.
        EXPECT_NE(serial.telemetryCsv.find("net.peak_queue"),
                  std::string::npos);
    }
}

/** Parallel runs replay latency stamps as windows retire: every 64
 *  windows, the coordinator applies the stamps dated up to the window
 *  just run, and keeps the later ones. Only a trap-delayed stamp (a
 *  reply or invalidation launch dated now + Ts) can be later. A
 *  LimitLESS run with Ts > 0 and four times the property suite's
 *  length flushes many times and holds such stamps across flushes, and
 *  must still match serial at every thread count. */
const ParallelCase streamedCase{protocols::limitlessStall(4, 50), 41,
                                TopologyKind::torus};
constexpr unsigned streamedOps = 480;

TEST(StreamedStampReplay, MidRunFlushesMatchSerial)
{
    const RunDigest serial = runOnce(streamedCase, 1, streamedOps);
    EXPECT_EQ(serial.replay.flushes, 0u);
    for (unsigned threads : {2u, 3u, 4u}) {
        const RunDigest par = runOnce(streamedCase, threads, streamedOps);
        expectSameBehavior(par, serial, threads);
        // Flushes before the one at run end, and stamps dated past a
        // flush that a later one applied.
        EXPECT_GT(par.replay.flushes, 1u) << "threads=" << threads;
        EXPECT_GT(par.replay.held, 0u) << "threads=" << threads;
    }
}

/** The stamp buffers hold one stride of windows, not the run: four
 *  times the run length leaves the peak number of buffered stamps
 *  within 10%. */
TEST(StreamedStampReplay, PeakBufferIsFlatInRunLength)
{
    const RunDigest base = runOnce(streamedCase, 4, streamedOps);
    const RunDigest longer = runOnce(streamedCase, 4, 4 * streamedOps);
    ASSERT_GT(longer.replay.flushes, 3 * base.replay.flushes);
    const double lo = static_cast<double>(
        std::min(base.replay.peakBuffered, longer.replay.peakBuffered));
    const double hi = static_cast<double>(
        std::max(base.replay.peakBuffered, longer.replay.peakBuffered));
    EXPECT_GT(lo, 0.0);
    EXPECT_LE(hi, 1.1 * lo) << "peak buffered stamps: "
                            << base.replay.peakBuffered << " at "
                            << streamedOps << " ops/proc, "
                            << longer.replay.peakBuffered << " at "
                            << 4 * streamedOps;
}

/** Each window crosses exactly one barrier: with the profiler on, every
 *  partition's thread opens pk.barrier once per window plus once at
 *  start-up. Worker threads' trees merge under one path, so the
 *  coordinator's count is checked on its own and the workers' as a sum
 *  (each runs the same loop). */
TEST(ParallelKernelStatsTest, OneBarrierCrossingPerWindow)
{
    HostProfiler::reset();
    HostProfiler::enable();
    MachineConfig cfg;
    cfg.numNodes = 16;
    cfg.protocol = protocols::limitlessStall(4, 50);
    cfg.seed = 31;
    cfg.topology.kind = TopologyKind::torus;
    cfg.simThreads = 4;
    cfg.meshParams.inputFifoFlits = 2;
    FlightRecorder::instance().latency().reset();
    Machine m(cfg);
    RandomStressParams rp;
    rp.opsPerProc = 60;
    rp.counterLines = 1;
    rp.seed = 5;
    RandomStress wl(rp);
    wl.install(m);
    ASSERT_TRUE(m.run().completed);
    HostProfiler::disable();

    const ParallelKernelStats *pk = m.pkStats();
    ASSERT_NE(pk, nullptr);
    ASSERT_EQ(pk->partitions, 4u);
    std::uint64_t coordinator = 0, workers = 0, tails = 0;
    for (const HostProfiler::Scope &s : HostProfiler::snapshot()) {
        if (s.path == "machine.run;pk.worker;pk.barrier")
            coordinator += s.count;
        else if (s.path == "pk.worker;pk.barrier")
            workers += s.count;
        if (s.path.ends_with("pk.tail"))
            tails += s.count;
    }
    HostProfiler::reset();
    EXPECT_GT(pk->windows, 0u);
    EXPECT_EQ(coordinator, pk->windows + 1);
    EXPECT_EQ(workers, (pk->partitions - 1) * (pk->windows + 1));
    EXPECT_EQ(tails, pk->windows + 1);
}

/** The utilization exports must account for every executed event: the
 *  per-partition counters in ParallelKernelStats sum exactly to the
 *  run's event total, every partition did real work, and the window
 *  counters are internally consistent. (The total is NOT compared to a
 *  serial run: the windowed kernel schedules per-shard network ticks,
 *  so the event count is thread-count-dependent by design — only the
 *  simulated behavior is not.) */
TEST(ParallelKernelStatsTest, PartitionEventsSumToRunTotal)
{
    MachineConfig cfg;
    cfg.numNodes = 16;
    cfg.protocol = protocols::limitlessStall(4, 50);
    cfg.seed = 7;
    cfg.topology.kind = TopologyKind::torus;
    cfg.simThreads = 4;
    cfg.pkTelemetry = true;
    cfg.cache.cacheBytes = 16 * 16;
    cfg.metricsInterval = 400;

    FlightRecorder::instance().latency().reset();
    Machine m(cfg);
    RandomStressParams rp;
    rp.opsPerProc = 120;
    rp.seed = 99;
    RandomStress wl(rp);
    wl.install(m);
    const RunResult r = m.run();
    ASSERT_TRUE(r.completed);

    const ParallelKernelStats *pk = m.pkStats();
    ASSERT_NE(pk, nullptr);
    ASSERT_EQ(pk->partitions, m.numPartitions());
    ASSERT_GT(pk->partitions, 1u);
    std::uint64_t sum = 0;
    for (unsigned p = 0; p < pk->partitions; ++p) {
        EXPECT_GT(pk->parts[p].events, 0u) << "partition " << p;
        EXPECT_GE(pk->barrierWaitSeconds(p), 0.0) << "partition " << p;
        sum += pk->parts[p].events;
    }
    EXPECT_EQ(sum, r.events);
    EXPECT_GT(pk->windows, 0u);
    EXPECT_LE(pk->coupledWindows, pk->windows);
    EXPECT_GE(pk->lookahead, 1u);
    EXPECT_GE(pk->runSeconds, pk->serialTailSeconds);

    // pk.* telemetry columns ride along only when asked for.
    std::ostringstream csv;
    m.telemetry()->writeCsv(csv);
    EXPECT_NE(csv.str().find("pk.windows"), std::string::npos);
    EXPECT_NE(csv.str().find("pk.part_events.3"), std::string::npos);
    EXPECT_NE(csv.str().find("pk.barrier_wait_s.0"), std::string::npos);
}

/** Default config keeps the pk.* columns out of the telemetry CSV —
 *  that is what lets the byte-identical property above compare the CSV
 *  across thread counts. */
TEST(ParallelKernelStatsTest, PkColumnsAreOptIn)
{
    ParallelCase pc{protocols::limitlessStall(4, 50), 7,
                    TopologyKind::torus};
    const RunDigest par = runOnce(pc, 4);
    EXPECT_EQ(par.telemetryCsv.find("pk."), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    SerialVsParallel, ParallelSimProperty,
    testing::Values(
        ParallelCase{protocols::limitlessStall(4, 50), 7,
                     TopologyKind::mesh},
        ParallelCase{protocols::limitlessStall(4, 50), 23,
                     TopologyKind::torus},
        ParallelCase{protocols::fullMap(), 11, TopologyKind::mesh},
        ParallelCase{protocols::dirNB(4), 5, TopologyKind::expressMesh},
        ParallelCase{protocols::chained(), 3, TopologyKind::torus},
        // Two-level: chips of 4 nodes; partitions align to chips.
        ParallelCase{protocols::limitlessStall(4, 50), 17,
                     TopologyKind::mesh, 4, true},
        ParallelCase{protocols::dirNB(4), 29, TopologyKind::torus, 4,
                     true},
        ParallelCase{protocols::limitlessStall(4, 50), 31,
                     TopologyKind::torus, 1, false, true}),
    caseName);

} // namespace
} // namespace limitless
