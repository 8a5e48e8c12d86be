/**
 * @file
 * Transaction-tracer tests: reservoir quantile math and merge
 * (ParallelRunner result folding), span-tree structural properties on
 * real machine runs (every span closed, children nested inside their
 * parent, critical path tiling the transaction exactly), consistency of
 * the streamed quantiles with the LatencyTracker's folded means, the
 * unfinished-transaction accounting, the schema export, and the Chrome
 * trace_event emission of finalized span trees.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/parallel_runner.hh"
#include "machine/coherence_monitor.hh"
#include "obs/flight_recorder.hh"
#include "obs/json.hh"
#include "stats/reservoir.hh"
#include "workload/weather.hh"

namespace limitless
{
namespace
{

// ------------------------------------------------ reservoir quantiles

TEST(QuantileReservoir, ExactQuantilesOnSmallStream)
{
    QuantileReservoir r;
    for (int v = 1; v <= 100; ++v)
        r.add(static_cast<double>(v));
    EXPECT_TRUE(r.exact());
    EXPECT_EQ(r.count(), 100u);
    EXPECT_DOUBLE_EQ(r.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(r.quantile(1.0), 100.0);
    EXPECT_NEAR(r.quantile(0.50), 50.5, 1.0);
    EXPECT_NEAR(r.quantile(0.95), 95.0, 1.0);
    EXPECT_DOUBLE_EQ(r.mean(), 50.5);
}

TEST(QuantileReservoir, MergeOfExactReservoirsIsExact)
{
    QuantileReservoir a, b;
    for (int v = 1; v <= 50; ++v)
        a.add(static_cast<double>(v));
    for (int v = 51; v <= 100; ++v)
        b.add(static_cast<double>(v));
    a.merge(b);
    EXPECT_TRUE(a.exact());
    EXPECT_EQ(a.count(), 100u);
    // Identical to the single-stream reservoir above.
    EXPECT_DOUBLE_EQ(a.quantile(1.0), 100.0);
    EXPECT_NEAR(a.quantile(0.50), 50.5, 1.0);
    EXPECT_DOUBLE_EQ(a.mean(), 50.5);
}

TEST(QuantileReservoir, SampledModeStaysWithinStreamBounds)
{
    QuantileReservoir r(64); // force sampling
    for (int v = 0; v < 10'000; ++v)
        r.add(static_cast<double>(v % 1000));
    EXPECT_FALSE(r.exact());
    EXPECT_EQ(r.count(), 10'000u);
    EXPECT_GE(r.quantile(0.5), 0.0);
    EXPECT_LE(r.quantile(0.5), 999.0);
    // A uniform stream's sampled median should land near the middle.
    EXPECT_NEAR(r.quantile(0.5), 500.0, 250.0);
}

TEST(PhaseReservoirs, MergeSumsCounts)
{
    PhaseSample s{};
    s.reqNet = 3;
    s.home = 1;
    s.total = 4;
    PhaseReservoirs a, b;
    a.add(s);
    b.add(s);
    b.add(s);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.total.mean(), 4.0);
    EXPECT_DOUBLE_EQ(a.reqNet.quantile(0.99), 3.0);
}

TEST(PhaseReservoirs, JsonLeavesLaterDoublesAtTheStreamPrecision)
{
    // A traced BENCH row's quantiles print at full precision; the rows
    // and fields after them must still print like untraced ones.
    PhaseSample s{};
    s.reqNet = 1.0 / 3.0;
    s.total = 1.0 / 3.0;
    PhaseReservoirs q;
    q.add(s);
    std::ostringstream os;
    JsonWriter w(os);
    w.array().value(2.0 / 3.0);
    q.writeJson(w);
    w.value(2.0 / 3.0).end();
    const std::string text = os.str();
    EXPECT_EQ(text.substr(0, 12), "[0.666667, {");
    EXPECT_EQ(text.substr(text.size() - 12), "}, 0.666667]");
    EXPECT_NE(text.find("0.33333333333333331"), std::string::npos)
        << "quantiles themselves print at max_digits10";
}

// ------------------------------------------- span-tree machine runs

MachineConfig
small4(ProtocolParams proto)
{
    MachineConfig cfg;
    cfg.numNodes = 4;
    cfg.protocol = proto;
    cfg.seed = 7;
    return cfg;
}

/** Run 4-node weather with the tracer retaining *every* transaction,
 *  so structural properties are checked over the full population. */
std::vector<const TxnRecord *>
traceWeather(ProtocolParams proto)
{
    FlightRecorder &fr = FlightRecorder::instance();
    fr.latency().reset();
    MachineConfig cfg = small4(proto);
    Machine m(cfg);
    fr.txn().enable(/*top_k=*/1u << 20);
    WeatherParams wp;
    wp.iterations = 8;
    wp.columnLines = 16;
    Weather wl(wp);
    wl.install(m); // workload must outlive run(): coroutines reference it
    EXPECT_TRUE(m.run().completed);
    CoherenceMonitor(m).checkQuiescent();
    return fr.txn().top();
}

void
checkSpanTreeInvariants(const std::vector<const TxnRecord *> &records)
{
    ASSERT_FALSE(records.empty());
    for (const TxnRecord *rec : records) {
        const std::vector<TxnSpan> &spans = rec->spans;
        ASSERT_FALSE(spans.empty());
        EXPECT_STREQ(spans[0].kind, "txn");
        EXPECT_EQ(spans[0].parent, 0u);
        EXPECT_EQ(spans[0].start, rec->start);
        EXPECT_EQ(spans[0].end, rec->end);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const TxnSpan &s = spans[i];
            // Property: every opened span was closed, forward in time.
            EXPECT_GE(s.end, s.start)
                << "txn " << rec->id << " span " << i + 1 << " ("
                << s.kind << ") never closed";
            if (i == 0)
                continue;
            // Property: parents precede children...
            ASSERT_GE(s.parent, 1u);
            ASSERT_LE(s.parent, i);
            // ...and children nest inside the parent's [start, end].
            const TxnSpan &p = spans[s.parent - 1];
            EXPECT_GE(s.start, p.start)
                << "txn " << rec->id << " span " << i + 1 << " ("
                << s.kind << ") starts before parent " << p.kind;
            EXPECT_LE(s.end, p.end)
                << "txn " << rec->id << " span " << i + 1 << " ("
                << s.kind << ") ends after parent " << p.kind;
        }
        // The critical path tiles [start, end] exactly: contiguous
        // segments, no gaps, no overlap, full coverage.
        ASSERT_FALSE(rec->critical.empty());
        EXPECT_EQ(rec->critical.front().start, rec->start);
        EXPECT_EQ(rec->critical.back().end, rec->end);
        for (std::size_t i = 0; i < rec->critical.size(); ++i) {
            const TxnCritSeg &seg = rec->critical[i];
            EXPECT_GE(seg.span, 1u);
            EXPECT_LE(seg.span, spans.size());
            EXPECT_LT(seg.start, seg.end);
            if (i) {
                EXPECT_EQ(seg.start, rec->critical[i - 1].end);
            }
        }
    }
}

TEST(TxnTracer, SpanTreesWellFormedStallApprox)
{
    checkSpanTreeInvariants(traceWeather(protocols::limitlessStall(2, 50)));
    FlightRecorder::instance().txn().disable();
}

TEST(TxnTracer, SpanTreesWellFormedFullEmulation)
{
    const auto records = traceWeather(protocols::limitlessEmulated(2));
    checkSpanTreeInvariants(records);
    // Full emulation must produce trap_emulate spans somewhere.
    bool saw_emulate = false;
    for (const TxnRecord *rec : records)
        for (const TxnSpan &s : rec->spans)
            if (std::string(s.kind) == "trap_emulate")
                saw_emulate = true;
    EXPECT_TRUE(saw_emulate);
    FlightRecorder::instance().txn().disable();
}

TEST(TxnTracer, QuantilesConsistentWithLatencyTrackerMeans)
{
    traceWeather(protocols::limitlessStall(2, 50));
    FlightRecorder &fr = FlightRecorder::instance();
    const PhaseBreakdown p = fr.latency().snapshot();
    const PhaseReservoirs &q = fr.txn().quantiles();

    // Same samples, same folded attribution: the reservoirs' means must
    // agree with the LatencyTracker's (both exact at this scale).
    ASSERT_EQ(q.count(), p.completed);
    EXPECT_TRUE(q.total.exact());
    EXPECT_NEAR(q.total.mean(), p.total, 1e-9 * (1.0 + p.total));
    EXPECT_NEAR(q.reqNet.mean(), p.reqNet, 1e-9 * (1.0 + p.reqNet));
    EXPECT_NEAR(q.home.mean(), p.home, 1e-9 * (1.0 + p.home));
    EXPECT_NEAR(q.trap.mean(), p.trap, 1e-9 * (1.0 + p.trap));
    EXPECT_NEAR(q.inv.mean(), p.inv, 1e-9 * (1.0 + p.inv));
    EXPECT_NEAR(q.replyNet.mean(), p.replyNet, 1e-9 * (1.0 + p.replyNet));
    // Quantiles bracket the mean sanely.
    EXPECT_LE(q.total.quantile(0.50), q.total.quantile(0.95));
    EXPECT_LE(q.total.quantile(0.95), q.total.quantile(0.99));
    fr.txn().disable();
}

TEST(TxnTracer, NoUnfinishedTransactionsAtQuiescence)
{
    traceWeather(protocols::limitlessStall(2, 50));
    FlightRecorder &fr = FlightRecorder::instance();
    EXPECT_EQ(fr.latency().inFlight(), 0u);
    EXPECT_EQ(fr.txn().openCount(), 0u);
    EXPECT_GT(fr.txn().completedCount(), 0u);
    fr.txn().disable();
}

TEST(TxnTracer, ExportIsValidVersionedJson)
{
    traceWeather(protocols::limitlessStall(2, 50));
    FlightRecorder &fr = FlightRecorder::instance();
    std::ostringstream os;
    fr.txn().writeJson(os);
    fr.txn().disable();
    const std::string text = os.str();
    std::string err;
    EXPECT_TRUE(jsonValidate(text, &err)) << err;
    EXPECT_NE(text.find("\"schema\": \"limitless-txn-v1\""),
              std::string::npos);
    EXPECT_NE(text.find("\"version\": 1"), std::string::npos);
    EXPECT_NE(text.find("\"phase_quantiles\""), std::string::npos);
    EXPECT_NE(text.find("\"critical\""), std::string::npos);
    EXPECT_NE(text.find("\"unfinished\": 0"), std::string::npos);
}

TEST(TxnTracer, StatsJsonExportsUnfinishedAndQuantiles)
{
    FlightRecorder &fr = FlightRecorder::instance();
    fr.latency().reset();
    MachineConfig cfg = small4(protocols::limitlessStall(2, 50));
    Machine m(cfg);
    fr.txn().enable(4);
    WeatherParams wp;
    wp.iterations = 4;
    wp.columnLines = 8;
    Weather wl(wp);
    wl.install(m);
    ASSERT_TRUE(m.run().completed);

    std::ostringstream os;
    m.dumpStatsJson(os);
    fr.txn().disable();
    const std::string text = os.str();
    std::string err;
    EXPECT_TRUE(jsonValidate(text, &err)) << err;
    EXPECT_NE(text.find("\"unfinished_remote\": 0"), std::string::npos);
    EXPECT_NE(text.find("\"phase_quantiles\""), std::string::npos);
    EXPECT_NE(text.find("\"p99\""), std::string::npos);
}

TEST(TxnTracer, ChromeTraceCarriesSpanSlices)
{
    const std::string path = "txn_trace_chrome_test.json";
    FlightRecorder &fr = FlightRecorder::instance();
    fr.latency().reset();
    ASSERT_TRUE(fr.traceOpen(path));
    {
        MachineConfig cfg = small4(protocols::limitlessStall(2, 50));
        Machine m(cfg);
        fr.txn().enable(8);
        WeatherParams wp;
        wp.iterations = 4;
        wp.columnLines = 8;
        Weather wl(wp);
        wl.install(m);
        ASSERT_TRUE(m.run().completed);
    }
    fr.traceClose();
    fr.txn().disable();

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    std::string err;
    EXPECT_TRUE(jsonValidate(text, &err)) << err;
    // Finalized span trees emit "txn"-category slices plus flow arrows
    // binding the network legs across nodes.
    EXPECT_NE(text.find("\"cat\":\"txn\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"f\""), std::string::npos);
    std::remove(path.c_str());
}

// -------------------------------------- harness / sweep integration

TEST(TxnTracer, RunExperimentCarriesQuantilesAcrossParallelRunner)
{
    const std::string trace_a = "txn_sweep_a_test.json";
    const std::string trace_b = "txn_sweep_b_test.json";
    WeatherParams wp;
    wp.iterations = 4;
    wp.columnLines = 8;
    auto runOne = [&wp](std::uint64_t seed, const std::string &path) {
        MachineConfig cfg;
        cfg.numNodes = 4;
        cfg.protocol = protocols::limitlessStall(2, 50);
        cfg.seed = seed;
        cfg.txnTraceOut = path;
        return runExperiment(
            cfg, [&wp]() { return std::make_unique<Weather>(wp); });
    };

    // Two runs on worker threads: each thread-local recorder captures
    // its own run; outcomes carry the reservoirs back for merging.
    ParallelRunner runner(2);
    const std::vector<std::string> paths = {trace_a, trace_b};
    std::ostringstream sink;
    const ParallelRunner::Task<ExperimentOutcome> task =
        [&](std::size_t i, std::ostream &) {
            return runOne(100 + i, paths[i]);
        };
    const auto outcomes = runner.map<ExperimentOutcome>(2, task, sink);

    ASSERT_EQ(outcomes.size(), 2u);
    PhaseReservoirs merged;
    std::uint64_t completed = 0;
    for (const ExperimentOutcome &o : outcomes) {
        EXPECT_GT(o.txnCompleted, 0u);
        EXPECT_EQ(o.txnQuantiles.count(), o.txnCompleted);
        EXPECT_FALSE(o.txnTracePath.empty());
        merged.merge(o.txnQuantiles);
        completed += o.txnCompleted;
    }
    EXPECT_EQ(merged.count(), completed);
    // Merged quantiles stay inside the per-run envelopes.
    const double hi =
        std::max(outcomes[0].txnQuantiles.total.quantile(1.0),
                 outcomes[1].txnQuantiles.total.quantile(1.0));
    EXPECT_LE(merged.total.quantile(0.99), hi);

    for (const std::string &p : paths) {
        std::ifstream in(p);
        EXPECT_TRUE(in.is_open()) << p;
        std::stringstream buf;
        buf << in.rdbuf();
        std::string err;
        EXPECT_TRUE(jsonValidate(buf.str(), &err)) << p << ": " << err;
        std::remove(p.c_str());
    }
}

} // namespace
} // namespace limitless
