/**
 * @file
 * Model-checker suite: exhaustive clean sweeps over every directory
 * scheme, the injected-bug demonstration (a flipped table guard must
 * yield a minimized, replayable counterexample), trace round-trips,
 * and the coverage machinery. The full standard sweep runs as the
 * limitless-check tool's own CI test; here the configs stay small so
 * the tier-1 suite stays fast.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "check/coverage.hh"
#include "check/explorer.hh"
#include "check/minimize.hh"
#include "check/trace_io.hh"
#include "harness/experiment.hh"

namespace limitless
{
namespace
{

CheckConfig
smokeConfig(ProtocolParams proto, unsigned nodes = 2)
{
    CheckConfig cfg;
    cfg.protocol = proto;
    cfg.nodes = nodes;
    cfg.script = "smoke";
    return cfg;
}

ProtocolParams
privateOnlyParams()
{
    ProtocolParams p;
    p.kind = ProtocolKind::privateOnly;
    return p;
}

// --- Exhaustive clean sweeps ---------------------------------------

struct SchemeCase
{
    const char *tag;
    ProtocolParams proto;
};

// gtest's default printer dumps the raw bytes, which include the tag
// pointer and struct padding, so the listed test names would change
// from one process to the next. Print the tag instead.
void
PrintTo(const SchemeCase &c, std::ostream *os)
{
    *os << c.tag;
}

std::string
schemeName(const testing::TestParamInfo<SchemeCase> &info)
{
    return info.param.tag;
}

class CheckerSweep : public testing::TestWithParam<SchemeCase>
{
};

TEST_P(CheckerSweep, SmokeIsExhaustiveAndClean)
{
    const ExploreResult r =
        explore(smokeConfig(GetParam().proto), ExploreLimits{});
    EXPECT_TRUE(r.ok()) << violationKindName(r.cex->kind);
    EXPECT_TRUE(r.stats.exhaustive());
    EXPECT_GT(r.stats.states, 10u);
    EXPECT_GT(r.stats.terminals, 0u);
}

TEST_P(CheckerSweep, ConflictIsExhaustiveAndClean)
{
    CheckConfig cfg;
    cfg.protocol = GetParam().proto;
    cfg.nodes = 2;
    cfg.lines = 2;
    cfg.script = "conflict";
    const ExploreResult r = explore(cfg, ExploreLimits{});
    EXPECT_TRUE(r.ok()) << violationKindName(r.cex->kind);
    EXPECT_TRUE(r.stats.exhaustive());
    EXPECT_GT(r.stats.states, 50u);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, CheckerSweep,
    testing::Values(
        SchemeCase{"full_map", protocols::fullMap()},
        SchemeCase{"limited1", protocols::dirNB(1)},
        SchemeCase{"limitless1", protocols::limitlessStall(1, 8)},
        SchemeCase{"limitless1_emu", protocols::limitlessEmulated(1)},
        SchemeCase{"chained", protocols::chained()},
        SchemeCase{"private_only", privateOnlyParams()}),
    schemeName);

TEST(CheckerSweepExtra, LimitlessOverflowThreeNodesIsClean)
{
    // Two remote sharers against one hardware pointer: the pointer
    // overflow / trap path is on every nontrivial schedule.
    const ExploreResult r =
        explore(smokeConfig(protocols::limitlessStall(1, 8), 3),
                ExploreLimits{});
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.stats.exhaustive());
    EXPECT_GT(r.stats.states, 500u);
}

// --- Determinism of replay-based exploration -----------------------

TEST(CheckerWorld, ReplayReachesIdenticalFingerprint)
{
    const CheckConfig cfg = smokeConfig(protocols::fullMap());
    CheckWorld a(cfg);
    Schedule schedule;
    // Walk a fixed path: always take the first enabled choice.
    for (int i = 0; i < 6 && !a.enabled().empty(); ++i) {
        const Choice c = a.enabled().front();
        ASSERT_TRUE(a.apply(c));
        schedule.push_back(c);
    }
    const std::unique_ptr<CheckWorld> b = replaySchedule(cfg, schedule);
    EXPECT_EQ(a.fingerprint(), b->fingerprint());
}

TEST(CheckerWorld, InapplicableChoicesAreRejectedWithoutSideEffects)
{
    CheckWorld w(smokeConfig(protocols::fullMap()));
    const std::string before = w.fingerprint();
    Choice deliver;
    deliver.kind = Choice::Kind::deliver;
    deliver.src = 0;
    deliver.node = 1;
    std::string why;
    EXPECT_FALSE(w.apply(deliver, &why)); // nothing in flight yet
    EXPECT_EQ(why, "channel empty");
    EXPECT_EQ(before, w.fingerprint());
}

// --- Injected bugs: counterexample, minimization, replay -----------

/** rt_finish is guarded on data_seen: with the guard inverted the
 *  owner's ack falls through to the Read-Transaction stale_ack row, the
 *  home never leaves Read-Transaction, and the conflicting requests
 *  park in the defer buffer forever. */
void
expectFlippedAckGuardDeadlocksAndReplays(const ProtocolParams &proto)
{
    SCOPED_TRACE(proto.name());
    const std::uint16_t row =
        findRowByLabel(proto.kind, TableSide::home, "rt_finish");
    GuardFlipScope flip(proto.kind, TableSide::home, row);

    CheckConfig cfg;
    cfg.protocol = proto;
    cfg.nodes = 2;
    cfg.lines = 2;
    cfg.script = "conflict";

    const ExploreResult r = explore(cfg, ExploreLimits{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.cex->kind, ViolationKind::deadlock);

    const Schedule minimized =
        minimizeSchedule(cfg, r.cex->schedule, r.cex->kind);
    EXPECT_LE(minimized.size(), r.cex->schedule.size());
    EXPECT_TRUE(scheduleViolates(cfg, minimized, r.cex->kind));

    // Round-trip through the trace format and replay.
    CheckTrace trace;
    trace.config = cfg;
    trace.flips = {GuardFlip{proto.kind, TableSide::home, row}};
    trace.violation = r.cex->kind;
    trace.messages = r.cex->messages;
    trace.schedule = minimized;
    std::stringstream buf;
    writeTrace(buf, trace);
    CheckTrace parsed;
    std::string error;
    ASSERT_TRUE(parseTrace(buf, parsed, &error)) << error;
    EXPECT_TRUE(replayTrace(parsed));
}

TEST(CheckerFaultInjection, FlippedAckGuardDeadlocksAndReplays)
{
    expectFlippedAckGuardDeadlocksAndReplays(protocols::fullMap());
}

TEST(CheckerFaultInjection, FlippedAckGuardDeadlocksInEverySweptScheme)
{
    // The same fault in the other schemes whose recalls the sweep
    // explores (private-only recalls run over the loopback path).
    for (const ProtocolParams &proto :
         {protocols::dirNB(1), protocols::limitlessStall(1, 8),
          protocols::chained()})
        expectFlippedAckGuardDeadlocksAndReplays(proto);
}

TEST(CheckerFaultInjection, FlippedWriteTrapGuardBreaksSafety)
{
    // ro_write_gather's guard routes overflowed writes through the
    // trap handler; inverted, a write is granted while the software
    // directory still tracks readers — a single-writer violation.
    const std::uint16_t row =
        findRowByLabel(ProtocolKind::limitless, TableSide::home,
                       "ro_write_gather");
    GuardFlipScope flip(ProtocolKind::limitless, TableSide::home, row);

    const CheckConfig cfg =
        smokeConfig(protocols::limitlessStall(1, 8), 3);
    const ExploreResult r = explore(cfg, ExploreLimits{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.cex->kind, ViolationKind::safety);

    const Schedule minimized =
        minimizeSchedule(cfg, r.cex->schedule, r.cex->kind);
    EXPECT_LE(minimized.size(), r.cex->schedule.size());
    EXPECT_TRUE(scheduleViolates(cfg, minimized, r.cex->kind));
}

TEST(CheckerFaultInjection, CleanTablesNeverViolateUnderSameConfigs)
{
    // The same two configs the injection tests use must be clean
    // without the flips, so the counterexamples above are attributable
    // to the injected bug alone.
    CheckConfig conflict;
    conflict.protocol = protocols::fullMap();
    conflict.nodes = 2;
    conflict.lines = 2;
    conflict.script = "conflict";
    EXPECT_TRUE(explore(conflict, ExploreLimits{}).ok());
    EXPECT_TRUE(
        explore(smokeConfig(protocols::limitlessStall(1, 8), 3),
                ExploreLimits{})
            .ok());
}

// --- Trace format ---------------------------------------------------

TEST(CheckerTrace, RoundTripPreservesEveryField)
{
    CheckTrace t;
    t.config.protocol = protocols::limitlessEmulated(2);
    t.config.protocol.trapOnWrite = false;
    t.config.nodes = 3;
    t.config.lines = 2;
    t.config.script = "conflict";
    t.config.opsPerNode = 5;
    t.config.deferDepth = 2;
    t.config.seed = 99;
    t.flips = {GuardFlip{ProtocolKind::limitless, TableSide::cache, 7}};
    t.violation = ViolationKind::safety;
    t.messages = {"line 0x80: two writers", "second message"};
    Choice issue;
    issue.kind = Choice::Kind::issue;
    issue.node = 2;
    Choice deliver;
    deliver.kind = Choice::Kind::deliver;
    deliver.src = 1;
    deliver.node = 0;
    deliver.opcode = Opcode::WREQ;
    deliver.line = 0x80;
    t.schedule = {issue, deliver};

    std::stringstream buf;
    writeTrace(buf, t);
    CheckTrace p;
    std::string error;
    ASSERT_TRUE(parseTrace(buf, p, &error)) << error;

    EXPECT_EQ(p.config.protocol.kind, ProtocolKind::limitless);
    EXPECT_EQ(p.config.protocol.pointers, 2u);
    EXPECT_EQ(p.config.protocol.limitlessMode,
              LimitlessMode::fullEmulation);
    EXPECT_FALSE(p.config.protocol.trapOnWrite);
    EXPECT_EQ(p.config.nodes, 3u);
    EXPECT_EQ(p.config.lines, 2u);
    EXPECT_EQ(p.config.script, "conflict");
    EXPECT_EQ(p.config.opsPerNode, 5u);
    EXPECT_EQ(p.config.deferDepth, 2u);
    EXPECT_EQ(p.config.seed, 99u);
    ASSERT_EQ(p.flips.size(), 1u);
    EXPECT_EQ(p.flips[0].side, TableSide::cache);
    EXPECT_EQ(p.flips[0].row, 7u);
    EXPECT_EQ(p.violation, ViolationKind::safety);
    EXPECT_EQ(p.messages, t.messages);
    ASSERT_EQ(p.schedule.size(), 2u);
    EXPECT_EQ(p.schedule[0].kind, Choice::Kind::issue);
    EXPECT_EQ(p.schedule[0].node, 2u);
    EXPECT_EQ(p.schedule[1].kind, Choice::Kind::deliver);
    EXPECT_EQ(p.schedule[1].src, 1u);
    EXPECT_EQ(p.schedule[1].opcode, Opcode::WREQ);
    EXPECT_EQ(p.schedule[1].line, 0x80u);
}

TEST(CheckerTrace, ParserRejectsGarbage)
{
    CheckTrace t;
    std::string error;
    std::stringstream empty("not a trace\n");
    EXPECT_FALSE(parseTrace(empty, t, &error));
    std::stringstream truncated(
        "limitless-check-trace-v1\nkind full_map\nschedule\nissue 0\n");
    EXPECT_FALSE(parseTrace(truncated, t, &error));
    EXPECT_NE(error.find("truncated"), std::string::npos);
    std::stringstream badkey(
        "limitless-check-trace-v1\nwibble 3\nschedule\nend\n");
    EXPECT_FALSE(parseTrace(badkey, t, &error));
}

// --- Coverage -------------------------------------------------------

TEST(CheckerCoverage, ObserverSeesFiredRows)
{
    CoverageScope scope;
    ASSERT_TRUE(explore(smokeConfig(protocols::fullMap()),
                        ExploreLimits{})
                    .ok());
    const std::uint16_t grant = findRowByLabel(
        ProtocolKind::fullMap, TableSide::home, "ro_grant_read");
    EXPECT_TRUE(scope.covered(ProtocolKind::fullMap, TableSide::home,
                              grant));
    const std::vector<TableCoverage> cov =
        collectCoverage(scope, {ProtocolKind::fullMap});
    ASSERT_EQ(cov.size(), 2u); // home + cache side
    EXPECT_GT(cov[0].coveredRows, 0u);
    EXPECT_LT(cov[0].coveredRows, cov[0].rows()); // smoke leaves dead rows
    std::ostringstream report;
    writeCoverageReport(report, cov);
    EXPECT_NE(report.str().find("ro_grant_read"), std::string::npos);
    EXPECT_NE(report.str().find("dead rows:"), std::string::npos);
}

} // namespace
} // namespace limitless
