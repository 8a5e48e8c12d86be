/**
 * @file
 * Unit tests for the telemetry primitives (Log2Histogram, the pull-based
 * gauge/rate/ratio columns, CSV round-trip) plus the end-to-end
 * cross-check the windowed overflow fraction was designed around: m per
 * window, weighted by that window's request count, must recover the
 * run-level m exactly.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/parallel_runner.hh"
#include "machine/machine.hh"
#include "obs/telemetry.hh"
#include "workload/weather.hh"

namespace limitless
{
namespace
{

TEST(Log2Histogram, BucketBoundaries)
{
    // Matches stats::Histogram: bucket 0 is [0,2), bucket i is
    // [2^i, 2^(i+1)).
    EXPECT_EQ(Log2Histogram::bucketFor(0, 16), 0u);
    EXPECT_EQ(Log2Histogram::bucketFor(1, 16), 0u);
    EXPECT_EQ(Log2Histogram::bucketFor(2, 16), 1u);
    EXPECT_EQ(Log2Histogram::bucketFor(3, 16), 1u);
    EXPECT_EQ(Log2Histogram::bucketFor(4, 16), 2u);
    EXPECT_EQ(Log2Histogram::bucketFor(7, 16), 2u);
    EXPECT_EQ(Log2Histogram::bucketFor(8, 16), 3u);
    EXPECT_EQ(Log2Histogram::lowerBound(0), 0u);
    EXPECT_EQ(Log2Histogram::upperBound(0), 1u);
    EXPECT_EQ(Log2Histogram::lowerBound(3), 8u);
    EXPECT_EQ(Log2Histogram::upperBound(3), 15u);

    Log2Histogram h(10);
    EXPECT_EQ(h.label(0), "0-1");
    EXPECT_EQ(h.label(2), "4-7");
    EXPECT_EQ(h.label(9), "512+");

    // Every boundary value lands where the bounds say it must.
    for (unsigned i = 0; i + 1 < 16; ++i) {
        EXPECT_EQ(Log2Histogram::bucketFor(Log2Histogram::lowerBound(i), 16),
                  i);
        EXPECT_EQ(Log2Histogram::bucketFor(Log2Histogram::upperBound(i), 16),
                  i);
    }
}

TEST(Log2Histogram, OverflowBucketAbsorbsLargeValues)
{
    Log2Histogram h(4);
    EXPECT_EQ(h.overflowBucket(), 3u);
    h.sample(7);                      // bucket 2: [4,8)
    h.sample(8);                      // overflow lower bound
    h.sample(std::uint64_t{1} << 40); // far past the last bucket
    EXPECT_EQ(h.bucket(2), 1u);
    EXPECT_EQ(h.bucket(3), 2u);
    EXPECT_EQ(h.count(), 3u);
}

TEST(Log2Histogram, MergeAddsCounts)
{
    Log2Histogram a(8), b(8);
    a.sample(1);
    a.sample(5);
    b.sample(5);
    b.sample(300); // overflow (>= 128)
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.bucket(0), 1u);
    EXPECT_EQ(a.bucket(2), 2u);
    EXPECT_EQ(a.bucket(a.overflowBucket()), 1u);

    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.bucket(2), 0u);
}

TEST(Log2Histogram, MergeAcrossParallelRunnerJobs)
{
    // The fan-out pattern the benches use: per-job histograms merged
    // after the sweep must equal one histogram fed serially.
    const std::size_t kJobs = 4, kPerJob = 1000;
    auto valueFor = [](std::size_t job, std::size_t i) {
        return static_cast<std::uint64_t>((job * 37 + i * 13) % 600);
    };

    ParallelRunner runner(kJobs);
    const ParallelRunner::Task<Log2Histogram> task =
        [&](std::size_t job, std::ostream &) {
            Log2Histogram h(10);
            for (std::size_t i = 0; i < kPerJob; ++i)
                h.sample(valueFor(job, i));
            return h;
        };
    std::ostringstream sink;
    std::vector<Log2Histogram> parts =
        runner.map<Log2Histogram>(kJobs, task, sink);

    Log2Histogram merged(10), serial(10);
    for (const Log2Histogram &p : parts)
        merged.merge(p);
    for (std::size_t job = 0; job < kJobs; ++job)
        for (std::size_t i = 0; i < kPerJob; ++i)
            serial.sample(valueFor(job, i));

    ASSERT_EQ(merged.count(), serial.count());
    for (unsigned b = 0; b < merged.numBuckets(); ++b)
        EXPECT_EQ(merged.bucket(b), serial.bucket(b)) << "bucket " << b;
}

TEST(Telemetry, GaugeIsPulledOnlyAtSampleInstants)
{
    EventQueue eq;
    Telemetry t(eq, 10);
    double level = 0.0;
    unsigned pulls = 0;
    t.addGauge("level", [&]() {
        ++pulls;
        return level;
    });
    for (Tick tick = 1; tick <= 40; ++tick)
        eq.schedule(tick, [&level]() { level += 1.0; });
    t.start([&eq]() { return eq.now() >= 40; });
    eq.run();
    t.finish();

    const auto &v = t.values("level");
    ASSERT_EQ(v.size(), 4u);
    for (std::size_t i = 0; i < v.size(); ++i)
        EXPECT_DOUBLE_EQ(v[i], 10.0 * (i + 1));
    // Pull-based: the probe ran once per window, never in between.
    EXPECT_EQ(pulls, 4u);
}

TEST(Telemetry, RateRecordsWindowDeltasThatSumToTotal)
{
    EventQueue eq;
    Telemetry t(eq, 10);
    double total = 0.0;
    t.addRate("rate", [&total]() { return total; });
    for (Tick tick = 1; tick <= 50; ++tick)
        eq.schedule(tick, [&total]() { total += 2.0; });
    t.start([&eq]() { return eq.now() >= 50; });
    eq.run();
    t.finish();

    const auto &v = t.values("rate");
    ASSERT_EQ(v.size(), 5u);
    double sum = 0.0;
    for (double d : v) {
        EXPECT_DOUBLE_EQ(d, 20.0);
        sum += d;
    }
    EXPECT_DOUBLE_EQ(sum, total);
}

TEST(Telemetry, RatioIsPerWindowAndZeroWhenDenominatorIdle)
{
    EventQueue eq;
    Telemetry t(eq, 10);
    double num = 0.0, den = 0.0;
    t.addRatio("m", [&num]() { return num; }, [&den]() { return den; });
    // Window 1: 2/10. Window 2: idle (ratio must be 0, not NaN).
    // Window 3: 9/10.
    for (Tick tick = 1; tick <= 10; ++tick)
        eq.schedule(tick, [&num, &den, tick]() {
            den += 1.0;
            if (tick <= 2)
                num += 1.0;
        });
    for (Tick tick = 21; tick <= 30; ++tick)
        eq.schedule(tick, [&num, &den, tick]() {
            den += 1.0;
            if (tick <= 29)
                num += 1.0;
        });
    t.start([&eq]() { return eq.now() >= 30; });
    eq.run();
    t.finish();

    const auto &v = t.values("m");
    ASSERT_EQ(v.size(), 3u);
    EXPECT_DOUBLE_EQ(v[0], 0.2);
    EXPECT_DOUBLE_EQ(v[1], 0.0);
    EXPECT_DOUBLE_EQ(v[2], 0.9);
}

TEST(Telemetry, FinishRecordsThePartialTailWindow)
{
    EventQueue eq;
    Telemetry t(eq, 100);
    double total = 0.0;
    t.addRate("rate", [&total]() { return total; });
    eq.schedule(3, [&total]() { total += 5.0; });
    eq.schedule(7, [&total]() { total += 5.0; });
    t.start([]() { return false; });
    // Stop before the first interval event: no full window ever fires.
    eq.runUntil(50);
    t.finish();

    ASSERT_EQ(t.windows(), 1u);
    EXPECT_DOUBLE_EQ(t.values("rate")[0], 10.0);
}

TEST(Telemetry, UnknownSeriesNameIsFatal)
{
    EventQueue eq;
    Telemetry t(eq, 5);
    t.addRate("rate", []() { return 0.0; });
    EXPECT_DEATH(t.values("nope"), "no column named 'nope'");
}

TEST(Telemetry, CsvRoundTripsSchemaHeaderAndRows)
{
    EventQueue eq;
    Telemetry t(eq, 10);
    double total = 0.0;
    t.addRate("a.rate", [&total]() { return total; });
    t.addGauge("b.gauge", [&total]() { return total; });
    for (Tick tick = 1; tick <= 20; ++tick)
        eq.schedule(tick, [&total]() { total += 1.0; });
    t.start([&eq]() { return eq.now() >= 20; });
    eq.run();
    t.finish();

    std::ostringstream os;
    t.writeCsv(os);
    std::istringstream in(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, std::string("# schema: ") + Telemetry::csvSchema());
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "tick,a.rate,b.gauge");
    std::size_t rows = 0;
    while (std::getline(in, line) && !line.empty())
        ++rows;
    EXPECT_EQ(rows, t.windows());

    EXPECT_EQ(telemetryJsonPathFor("foo.csv"), "foo.json");
    EXPECT_EQ(telemetryJsonPathFor("foo.dat"), "foo.dat.json");
}

TEST(Telemetry, WindowedOverflowFractionRecoversRunLevelM)
{
    // The acceptance cross-check: on the paper's pathological workload
    // (64-node Weather, hot variable shared by all readers, LimitLESS4),
    // the per-window m values from the CSV, weighted by each window's
    // request delta, must average to the run-level m = traps/requests.
    MachineConfig cfg;
    cfg.numNodes = 64;
    cfg.seed = 1991;
    cfg.protocol.kind = ProtocolKind::limitless;
    cfg.protocol.pointers = 4;
    cfg.protocol.softwareLatency = 50;
    cfg.protocol.limitlessMode = LimitlessMode::stallApprox;
    cfg.metricsInterval = 2000;

    Machine machine(cfg);
    WeatherParams wp;
    wp.iterations = 6;
    wp.columnLines = 16;
    Weather wl(wp);
    wl.install(machine);
    const RunResult run = machine.run();
    ASSERT_TRUE(run.completed);

    const Telemetry *t = machine.telemetry();
    ASSERT_NE(t, nullptr);
    ASSERT_GE(t->windows(), 2u) << "need several windows for the check";

    const auto &m = t->values("mem.m");
    const auto &reqs = t->values("mem.reqs");
    ASSERT_EQ(m.size(), reqs.size());
    double weighted = 0.0, total_reqs = 0.0;
    for (std::size_t i = 0; i < m.size(); ++i) {
        weighted += m[i] * reqs[i];
        total_reqs += reqs[i];
    }
    ASSERT_GT(total_reqs, 0.0);
    const double run_m = machine.overflowFraction();
    EXPECT_GT(run_m, 0.0) << "LimitLESS4 under 64 sharers must trap";
    EXPECT_NEAR(weighted / total_reqs, run_m, 1e-12);

    // Rate columns recover run totals too: the invalidations caches
    // received, window by window, add up to the cache.invs counter.
    const std::uint64_t invs = machine.sumCounter("cache", "invs");
    EXPECT_GT(invs, 0u) << "64 readers of one line must be invalidated";
    double invs_rx = 0.0;
    for (double v : t->values("cache.invs_rx"))
        invs_rx += v;
    EXPECT_EQ(invs_rx, static_cast<double>(invs));

    // The worker-set profile (the paper's Trap-Always measurement) saw
    // traffic, and the hot variable's full-machine worker set landed in
    // the top buckets.
    const Log2Histogram *ws = t->histogram("worker_set");
    ASSERT_NE(ws, nullptr);
    EXPECT_GT(ws->count(), 0u);
    std::uint64_t beyond_pointers = 0;
    for (unsigned b = Log2Histogram::bucketFor(8, ws->numBuckets());
         b < ws->numBuckets(); ++b)
        beyond_pointers += ws->bucket(b);
    EXPECT_GT(beyond_pointers, 0u)
        << "worker sets past the 4-pointer array must show up";
}

} // namespace
} // namespace limitless
