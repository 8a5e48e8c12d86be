/**
 * @file
 * Row coverage of the random-stress tier. Every ProtocolFuzz and
 * ProtocolProperty case runs again under one CoverageScope, together
 * with a few stress cases aimed at rows the two suites do not reach
 * (update-mode lines, a one-entry defer buffer, chip-level
 * Trap-Always). The home, cache and chip coverage report must equal
 * tests/golden/stress_coverage.txt byte for byte; a row that stops
 * firing, or a dead one that starts, is a visible diff. docs/CHECKER.md
 * §6 accounts for every row dead in both this golden and the checker's.
 *
 * Regenerate the golden after an intentional table or case change with
 *   LIMITLESS_UPDATE_GOLDEN=1 ./test_stress_coverage
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "check/coverage.hh"
#include "stress_cases.hh"

namespace limitless
{
namespace
{

/** Mark every RandomStress value line update-mode. Value lines sit on
 *  the odd data slots of their home and counters on the even ones, so
 *  marking the odd slots of every node marks the value lines only:
 *  update-mode and ownership traffic share the run, never a line. */
void
markValuesUpdateMode(Machine &m)
{
    const AddressMap &amap = m.addressMap();
    for (NodeId n = 0; n < m.numNodes(); ++n)
        for (unsigned k = 0; k < 8; ++k)
            m.policy().markUpdateMode(amap.lineAddr(
                amap.addrOnNode(n, slot::data + 2 * k + 1)));
}

/** @p n case seeds from generator stream @p stream. Each family of
 *  targeted cases draws from its own stream, so adding a case to one
 *  family leaves every other family's seeds alone. */
std::vector<std::uint64_t>
seeds(std::uint64_t stream, unsigned n)
{
    Rng rng(stream);
    std::vector<std::uint64_t> out;
    for (unsigned i = 0; i < n; ++i)
        out.push_back(rng.range(1, 1u << 20));
    return out;
}

void
expectClean(const MachineConfig &cfg,
            const std::function<void(Machine &)> &prepare = nullptr)
{
    const std::vector<std::string> v = runFuzzCase(cfg, 60, prepare);
    EXPECT_TRUE(v.empty()) << cfg.protocol.name() << " seed " << cfg.seed
                           << ": " << v.front();
}

/** Stress cases for rows the fuzz and property suites do not reach. */
void
runTargetedCases()
{
    ProtocolParams privateOnly;
    privateOnly.kind = ProtocolKind::privateOnly;

    // Update-mode lines under eviction: an MUPD reaches caches that
    // already dropped their copy (mupd_spurious), and a writer holding
    // a read copy gets its WACK in Read-Only. Update mode serves the
    // pointer schemes and private-only.
    for (const ProtocolParams &proto :
         {protocols::fullMap(), protocols::dirNB(2),
          protocols::limitlessStall(2, 50), protocols::limitlessEmulated(2),
          privateOnly})
        for (unsigned nodes : {4u, 16u})
            for (std::uint64_t seed : seeds(0x0bd47e00 + nodes, 2))
                expectClean(fuzzConfig(proto, nodes, seed),
                            markValuesUpdateMode);

    // Shallow defer buffers: a request that collides with a transaction
    // is BUSY-nacked once the buffer is full (at once with no buffer),
    // at the global home and at a chip home alike, so the retry rows,
    // the chip's fill-BUSY rows and the chip's transient defers run.
    for (unsigned depth : {0u, 1u}) {
        for (const ProtocolParams &proto :
             {protocols::fullMap(), protocols::dirNB(2),
              protocols::limitlessStall(4, 50), protocols::chained(),
              privateOnly}) {
            for (std::uint64_t seed : seeds(0xdefe0000 + depth, 4)) {
                MachineConfig cfg = fuzzConfig(proto, 16, seed);
                cfg.mem.deferDepth = depth;
                expectClean(cfg);
            }
        }
        for (const ProtocolParams &proto :
             {protocols::fullMap(), protocols::dirNB(2),
              protocols::limitlessStall(1, 25), protocols::chained()}) {
            for (std::uint64_t seed : seeds(0xc41e0000 + depth, 4)) {
                MachineConfig cfg = fuzzConfig(proto, 16, seed);
                cfg.mem.deferDepth = depth;
                cfg.topology.clusterSize = 4;
                cfg.hier = true;
                expectClean(cfg);
            }
        }
    }

    // Trap-Always at both levels (the Trap-On-Write ablation) on a
    // two-level machine: chip reads of a demoted line take c_sw_read.
    ProtocolParams trapAlways = protocols::limitlessStall(1, 25);
    trapAlways.trapOnWrite = false;
    for (std::uint64_t seed : seeds(0x7a5a0000, 4)) {
        MachineConfig cfg = fuzzConfig(trapAlways, 16, seed);
        cfg.topology.clusterSize = 4;
        cfg.hier = true;
        expectClean(cfg);
    }
}

TEST(StressCoverage, ReportMatchesGolden)
{
    std::ostringstream report;
    {
        CoverageScope scope;
        for (const FuzzCase &fc : fuzzCases()) {
            const std::vector<std::string> v =
                runFuzzCase(fuzzConfig(fc.proto, fc.nodes, fc.seed), 60);
            EXPECT_TRUE(v.empty()) << fc.proto.name() << " seed "
                                   << fc.seed << ": " << v.front();
        }
        for (const PropertyCase &pc : propertyCases())
            runPropertyCase(pc);
        runTargetedCases();
        writeCoverageReport(
            report,
            collectCoverage(scope,
                            {ProtocolKind::fullMap, ProtocolKind::limited,
                             ProtocolKind::limitless, ProtocolKind::chained,
                             ProtocolKind::privateOnly},
                            {TableSide::home, TableSide::cache,
                             TableSide::chip}));
    }

    const std::string path =
        std::string(LIMITLESS_GOLDEN_DIR) + "/stress_coverage.txt";
    if (std::getenv("LIMITLESS_UPDATE_GOLDEN")) {
        std::ofstream(path) << report.str();
        GTEST_SKIP() << "rewrote " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden " << path
                           << " (set LIMITLESS_UPDATE_GOLDEN=1 to write)";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(report.str(), golden.str())
        << "stress-tier row coverage changed: account for the rows in "
           "docs/CHECKER.md §6 and regenerate the golden";
}

} // namespace
} // namespace limitless
