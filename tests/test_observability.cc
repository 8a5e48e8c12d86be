/**
 * @file
 * Flight-recorder subsystem tests: JSON helpers and the JsonWriter
 * layouts every export relies on, the Chrome trace_event stream, the
 * remote-miss phase decomposition (phases must sum exactly to the
 * end-to-end latency and match the cache's own accumulator), the
 * postmortem ring dump on invariant violations, machine stats-JSON
 * export (pinned by a golden file), and the Welford variance machinery
 * in Accumulator.
 *
 * Regenerate the stats golden after an intentional layout change with
 *   LIMITLESS_UPDATE_GOLDEN=1 ./test_observability
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "harness/cli.hh"
#include "harness/experiment.hh"
#include "machine/coherence_monitor.hh"
#include "obs/flight_recorder.hh"
#include "obs/json.hh"
#include "obs/latency_tracker.hh"
#include "workload/weather.hh"

namespace limitless
{
namespace
{

// ------------------------------------------------------- JSON helpers

TEST(Json, EscapeQuotesBackslashesAndControls)
{
    std::ostringstream os;
    jsonEscape(os, "a\"b\\c\nd\x01");
    EXPECT_EQ(os.str(), "\"a\\\"b\\\\c\\nd\\u0001\"");
}

TEST(JsonWriter, InlineContainersSeparateWithCommaSpace)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.object().field("a", 1).field("b", "x").field("c", true);
    w.key("d").array().value(1).value(2).end();
    w.key("e").object().end().key("f").array().end().end();
    EXPECT_EQ(os.str(), "{\"a\": 1, \"b\": \"x\", \"c\": true, "
                        "\"d\": [1, 2], \"e\": {}, \"f\": []}");
}

TEST(JsonWriter, CompactReachesEverythingNestedInside)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.object().field("outer", 1).key("in").object(JsonWriter::compact);
    w.field("a", 1).key("b").object().field("c", 2).end();
    w.key("d").array().value(3).value(4).end().end();
    w.field("after", 5).end();
    EXPECT_EQ(os.str(), "{\"outer\": 1, \"in\": {\"a\":1,\"b\":{\"c\":2},"
                        "\"d\":[3,4]}, \"after\": 5}");
}

TEST(JsonWriter, IndentedContainersCloseTwoSpacesLeft)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.object(2).field("a", 1).key("rows").array(4);
    w.object().field("x", 1).end().object().field("x", 2).end();
    w.end().key("none").array(4).end().end();
    EXPECT_EQ(os.str(), "{\n"
                        "  \"a\": 1,\n"
                        "  \"rows\": [\n"
                        "    {\"x\": 1},\n"
                        "    {\"x\": 2}\n"
                        "  ],\n"
                        "  \"none\": []\n"
                        "}");

    // Indent 0 (the Chrome trace's events array) closes at column 0.
    std::ostringstream top;
    JsonWriter t(top);
    t.array(0).value(1).value(2).end();
    EXPECT_EQ(top.str(), "[\n1,\n2\n]");
}

TEST(JsonWriter, LineBreakAppliesToTheNextMemberOnly)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.object().field("id", 1).br(5).key("spans").array();
    w.object().field("id", 1).end().br(16).object().field("id", 2).end();
    w.end().field("end", 9).end();
    EXPECT_EQ(os.str(), "{\"id\": 1,\n"
                        "     \"spans\": [{\"id\": 1},\n"
                        "                {\"id\": 2}], \"end\": 9}");
}

TEST(JsonWriter, EscapesKeysAndValues)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.object().field("k\"\n", std::string("v\\\t\x01")).end();
    EXPECT_EQ(os.str(), "{\"k\\\"\\n\": \"v\\\\\\t\\u0001\"}");
    std::string err;
    EXPECT_TRUE(jsonValidate(os.str(), &err)) << err;
}

TEST(JsonWriter, ExactLeavesTheStreamPrecisionAsItFoundIt)
{
    std::ostringstream os;
    os << std::setprecision(3);
    JsonWriter w(os);
    const double x = 0.1 + 0.2;
    w.array().value(x).exact(x).value(x).end();
    EXPECT_EQ(os.str(), "[0.3, 0.30000000000000004, 0.3]");
    EXPECT_EQ(os.precision(), 3);
}

TEST(JsonWriter, RawWritesPreformattedNumbers)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.object().key("ts").raw("12.034").field("n", 1).end();
    EXPECT_EQ(os.str(), "{\"ts\": 12.034, \"n\": 1}");
}

TEST(Json, ValidateAcceptsValidDocuments)
{
    for (const char *doc :
         {"{}", "[]", "[1,2,3]", "-1.5e+3", "true", "null",
          "{\"a\":{\"b\":[1,{\"c\":\"x\\n\"}]},\"d\":0.25}",
          "  {\"k\": \"v\"}  "}) {
        std::string err;
        EXPECT_TRUE(jsonValidate(doc, &err)) << doc << ": " << err;
    }
}

TEST(Json, ValidateRejectsInvalidDocuments)
{
    for (const char *doc :
         {"{", "[1,]", "{\"a\":}", "01", "\"unterminated", "{} {}",
          "{\"a\" 1}", "nul", ""}) {
        EXPECT_FALSE(jsonValidate(doc)) << doc;
    }
}

// ----------------------------------------------- latency tracker unit

TEST(LatencyTracker, PhasesSumToTotalOnScriptedStamps)
{
    LatencyTracker lt;
    lt.onInject(0, 1, 0x40, false);
    lt.onHomeArrival(10, 1, 0x40);
    lt.onReplySent(15, 1, 0x40);
    lt.onComplete(25, 1, 0x40);

    const PhaseBreakdown p = lt.snapshot();
    EXPECT_EQ(p.completed, 1u);
    EXPECT_DOUBLE_EQ(p.reqNet, 10.0);
    EXPECT_DOUBLE_EQ(p.home, 5.0);
    EXPECT_DOUBLE_EQ(p.replyNet, 10.0);
    EXPECT_DOUBLE_EQ(p.trap, 0.0);
    EXPECT_DOUBLE_EQ(p.inv, 0.0);
    EXPECT_DOUBLE_EQ(p.total, 25.0);
    EXPECT_DOUBLE_EQ(p.sum(), p.total);
}

TEST(LatencyTracker, OverlappingWindowsStillSumExactly)
{
    // Trap charge larger than the home window: the deficit fold must
    // bleed phases rather than report a negative residual.
    LatencyTracker lt;
    lt.onInject(0, 2, 0x80, true);
    lt.onHomeArrival(10, 2, 0x80);
    lt.onTrap(2, 0x80, 50);
    lt.onReplySent(15, 2, 0x80);
    lt.onComplete(25, 2, 0x80);

    const PhaseBreakdown p = lt.snapshot();
    EXPECT_EQ(p.completed, 1u);
    EXPECT_GE(p.reqNet, 0.0);
    EXPECT_GE(p.home, 0.0);
    EXPECT_GE(p.trap, 0.0);
    EXPECT_GE(p.inv, 0.0);
    EXPECT_GE(p.replyNet, 0.0);
    EXPECT_DOUBLE_EQ(p.total, 25.0);
    EXPECT_NEAR(p.sum(), p.total, 1e-9);
}

// ------------------------------------- end-to-end phase decomposition

MachineConfig
small(ProtocolParams proto)
{
    MachineConfig cfg;
    cfg.numNodes = 4;
    cfg.protocol = proto;
    cfg.seed = 7;
    return cfg;
}

/** Two nodes read then one writes a line homed on a third node, so the
 *  run exercises request, home service, fan-out, and reply phases. */
void
runSharingScript(Machine &m)
{
    const Addr a = m.addressMap().addrOnNode(2, 0);
    m.spawnOn(0, [a](ThreadApi &t) -> Task<> {
        co_await t.read(a);
        co_await t.write(a, 1);
        co_await t.read(a);
    });
    m.spawnOn(1, [a](ThreadApi &t) -> Task<> {
        co_await t.read(a);
        co_await t.read(a);
    });
    m.spawnOn(3, [a](ThreadApi &t) -> Task<> { co_await t.read(a); });
    ASSERT_TRUE(m.run().completed);
}

TEST(PhaseDecomposition, PhasesMatchMeasuredRemoteLatency)
{
    FlightRecorder::instance().latency().reset();
    Machine m(small(protocols::fullMap()));
    runSharingScript(m);

    const PhaseBreakdown p =
        FlightRecorder::instance().latency().snapshot();
    ASSERT_GT(p.completed, 0u);
    EXPECT_NEAR(p.sum(), p.total, 1e-6);

    // Every remote miss in this script is a plain RREQ/WREQ, so the
    // tracker's population is exactly the cache's remote_latency one
    // and the mean end-to-end latencies must agree.
    const auto *acc = static_cast<const Accumulator *>(
        m.node(0).statSet("cache")->find("remote_latency"));
    ASSERT_NE(acc, nullptr);
    std::uint64_t remote_count = 0;
    double remote_sum = 0.0;
    for (unsigned i = 0; i < m.numNodes(); ++i) {
        const auto *a = static_cast<const Accumulator *>(
            m.node(i).statSet("cache")->find("remote_latency"));
        remote_count += a->count();
        remote_sum += a->sum();
    }
    ASSERT_EQ(remote_count, p.completed);
    EXPECT_NEAR(remote_sum / static_cast<double>(remote_count), p.total,
                1e-6);
}

TEST(PhaseDecomposition, LimitlessTrapPhaseIsCharged)
{
    FlightRecorder::instance().latency().reset();
    // One pointer forces an overflow trap once the second and third
    // sharers arrive.
    Machine m(small(protocols::limitlessStall(1, 50)));
    runSharingScript(m);

    const PhaseBreakdown p =
        FlightRecorder::instance().latency().snapshot();
    ASSERT_GT(p.completed, 0u);
    EXPECT_GT(p.trap, 0.0);
    EXPECT_NEAR(p.sum(), p.total, 1e-6);
}

// -------------------------------------------------- trace round trip

TEST(TraceStream, EmitsValidTraceEventJson)
{
    const std::string path = "trace_roundtrip_test.json";
    FlightRecorder &fr = FlightRecorder::instance();
    fr.latency().reset();
    ASSERT_TRUE(fr.traceOpen(path));
    {
        Machine m(small(protocols::limitlessStall(1, 50)));
        runSharingScript(m);
    }
    fr.traceClose();

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    std::string err;
    EXPECT_TRUE(jsonValidate(text, &err)) << err;
    // The script must have produced network, cache, and trap events.
    EXPECT_NE(text.find("\"cat\":\"net\""), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"miss_done\""), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"ptr_overflow\""), std::string::npos);
    std::remove(path.c_str());
}

/** The number after @p key in one trace line (@p fallback if absent). */
std::uint64_t
traceField(const std::string &ev, const std::string &key, int base,
           std::uint64_t fallback)
{
    const std::size_t at = ev.find(key);
    if (at == std::string::npos)
        return fallback;
    return std::stoull(ev.substr(at + key.size()), nullptr, base);
}

TEST(TraceStream, DirectoryEventsNameTheirHomeNode)
{
    // Every scheme's pointer-overflow and clear events land on the
    // Chrome-trace row (tid) of the home node that owns the line.
    const std::string path = "trace_dir_home_test.json";
    FlightRecorder &fr = FlightRecorder::instance();
    for (const ProtocolParams &proto :
         {protocols::dirNB(1), protocols::fullMap()}) {
        fr.latency().reset();
        ASSERT_TRUE(fr.traceOpen(path));
        Machine m(small(proto));
        runSharingScript(m);
        fr.traceClose();

        std::ifstream in(path);
        ASSERT_TRUE(in.is_open());
        std::size_t dir_events = 0;
        for (std::string ev; std::getline(in, ev);) {
            if (ev.find("\"cat\":\"dir\"") == std::string::npos)
                continue;
            ++dir_events;
            // A line of 0 is left out of "args".
            const Addr line = traceField(ev, "\"line\":\"", 16, 0);
            EXPECT_EQ(traceField(ev, "\"tid\":", 10, invalidNode),
                      m.addressMap().homeOf(line))
                << proto.name() << ": " << ev;
        }
        EXPECT_GT(dir_events, 0u) << proto.name();
        std::remove(path.c_str());
    }
}

TEST(TraceStream, LineFilterRestrictsStream)
{
    const std::string path = "trace_filter_test.json";
    FlightRecorder &fr = FlightRecorder::instance();
    fr.latency().reset();
    ASSERT_TRUE(fr.traceOpen(path));
    fr.setLineFilter({0xdeadbeef000ull}); // matches nothing
    {
        Machine m(small(protocols::fullMap()));
        runSharingScript(m);
    }
    fr.traceClose();
    fr.setLineFilter({});

    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    std::string err;
    EXPECT_TRUE(jsonValidate(text, &err)) << err;
    // Nothing matched the filter, so the array holds no events.
    EXPECT_EQ(text.find("\"name\""), std::string::npos);
    std::remove(path.c_str());
}

// ------------------------------------------- postmortem on violation

TEST(PostmortemRing, ViolationDumpsEventHistoryForLine)
{
    Machine m(small(protocols::fullMap()));
    const Addr a = m.addressMap().addrOnNode(2, 0);
    m.spawnOn(0, [a](ThreadApi &t) -> Task<> { co_await t.read(a); });
    m.spawnOn(1, [a](ThreadApi &t) -> Task<> { co_await t.read(a); });
    ASSERT_TRUE(m.run().completed);

    const Addr line = m.addressMap().lineAddr(a);
    m.node(0).cache().array().lookup(line)->state =
        CacheState::readWrite;
    m.node(1).cache().array().lookup(line)->state =
        CacheState::readWrite;
    // The dump header carries the trigger tick and reason (satellite
    // fix: correlating a panic dump with telemetry windows needs both).
    EXPECT_DEATH(CoherenceMonitor(m).checkGlobalInvariants(),
                 "postmortem @[0-9]+ \\(coherence violation\\): "
                 "last .* protocol events for line");
}

// -------------------------------------------------- stats JSON export

TEST(StatsJson, MachineExportIsValidJson)
{
    FlightRecorder::instance().latency().reset();
    Machine m(small(protocols::limitlessStall(1, 50)));
    runSharingScript(m);

    std::ostringstream os;
    m.dumpStatsJson(os, 12345);
    const std::string text = os.str();
    std::string err;
    ASSERT_TRUE(jsonValidate(text, &err)) << err;
    EXPECT_NE(text.find("\"schema\": \"limitless-stats-v3\""),
              std::string::npos);
    EXPECT_NE(text.find("\"schema_version\": 3"), std::string::npos);
    EXPECT_EQ(text.find("directory_storage"), std::string::npos);
    EXPECT_NE(text.find("\"phases\""), std::string::npos);
    EXPECT_NE(text.find("\"aggregate\""), std::string::npos);
    EXPECT_NE(text.find("\"network\""), std::string::npos);
    EXPECT_NE(text.find("\"cycles\": 12345"), std::string::npos);
}

/**
 * Run Weather and compare its stats JSON with @p golden byte for byte.
 * No RunResult is passed, so there is no host block and every byte is
 * deterministic. LIMITLESS_UPDATE_GOLDEN=1 rewrites the file.
 */
void
expectStatsGolden(const MachineConfig &cfg, const char *golden_name)
{
    FlightRecorder::instance().resetRun();
    Machine m(cfg);
    const auto wl = makeWorkloadFactory("weather", 4, cfg.seed)();
    wl->install(m);
    const RunResult run = m.run();
    ASSERT_TRUE(run.completed);
    wl->verify(m);

    std::ostringstream os;
    m.dumpStatsJson(os, run.cycles, nullptr);
    const std::string path =
        std::string(LIMITLESS_GOLDEN_DIR) + "/" + golden_name;
    if (std::getenv("LIMITLESS_UPDATE_GOLDEN")) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << path;
        out << os.str();
        return;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden " << path
                           << " (set LIMITLESS_UPDATE_GOLDEN=1 to write)";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(os.str(), golden.str())
        << golden_name
        << ": stats JSON changed; bump the schema per "
           "docs/OBSERVABILITY.md §6 and regenerate the golden if "
           "intended";
}

TEST(StatsJson, GoldenFourNodeWeather)
{
    // The run behind the telemetry and txn goldens: limitless-sim
    // --workload weather --protocol limitless2 --nodes 4 --iterations 4
    // --seed 7.
    MachineConfig flat;
    flat.numNodes = 4;
    flat.seed = 7;
    flat.protocol = parseProtocol("limitless2");
    expectStatsGolden(flat, "stats_4node.json");

    // The same workload on two chips, which pins the two-level keys
    // (the chip stat set, topology.hier, the chip_home / global_home /
    // inter_chip_inv phases): --nodes 8 --topology torus --cluster 4
    // --hier.
    MachineConfig hier = flat;
    hier.numNodes = 8;
    hier.topology.kind = TopologyKind::torus;
    hier.topology.clusterSize = 4;
    hier.hier = true;
    expectStatsGolden(hier, "stats_hier_8node.json");
}

// -------------------------------------------------- Welford variance

TEST(WelfordAccumulator, VarianceAndStddev)
{
    Accumulator acc("t", "test");
    for (double v : {1.0, 2.0, 3.0, 4.0, 5.0})
        acc.sample(v);
    EXPECT_DOUBLE_EQ(acc.mean(), 3.0);
    EXPECT_NEAR(acc.variance(), 2.0, 1e-12);
    EXPECT_NEAR(acc.stddev(), std::sqrt(2.0), 1e-12);
}

TEST(WelfordAccumulator, MergeMatchesDirectAccumulation)
{
    Accumulator a("a", ""), b("b", ""), direct("d", "");
    for (double v : {1.0, 10.0, 2.5}) {
        a.sample(v);
        direct.sample(v);
    }
    for (double v : {100.0, -3.0}) {
        b.sample(v);
        direct.sample(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), direct.count());
    EXPECT_NEAR(a.mean(), direct.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), direct.variance(), 1e-9);
    EXPECT_NEAR(a.minimum(), direct.minimum(), 1e-12);
    EXPECT_NEAR(a.maximum(), direct.maximum(), 1e-12);
}

TEST(WelfordAccumulator, MergeIntoEmptyCopiesSamplesNotIdentity)
{
    Accumulator empty("kept-name", "kept-desc"), other("other", "");
    other.sample(4.0);
    other.sample(8.0);
    empty.merge(other);
    EXPECT_EQ(empty.name(), "kept-name");
    EXPECT_EQ(empty.count(), 2u);
    EXPECT_DOUBLE_EQ(empty.mean(), 6.0);
}

TEST(WelfordAccumulator, JsonIncludesStddev)
{
    Accumulator acc("t", "test");
    acc.sample(1.0);
    acc.sample(3.0);
    std::ostringstream os;
    JsonWriter w(os);
    acc.json(w);
    std::string err;
    EXPECT_TRUE(jsonValidate(os.str(), &err)) << err;
    EXPECT_NE(os.str().find("\"stddev\":1"), std::string::npos);
}

// ----------------------------------------------------- CLI =-values

TEST(CliOptions, AcceptsEqualsSeparatedValues)
{
    const char *argv[] = {"prog", "--nodes=16", "--trace-out=t.json",
                          "--dump-stats"};
    const auto opts = CliOptions::parse(
        4, const_cast<char **>(argv),
        {{"nodes", true}, {"trace-out", true}, {"dump-stats", false}});
    EXPECT_EQ(opts.num("nodes", 0), 16u);
    EXPECT_EQ(opts.str("trace-out"), "t.json");
    EXPECT_TRUE(opts.has("dump-stats"));
}

} // namespace
} // namespace limitless
