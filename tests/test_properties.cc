/**
 * @file
 * Property-based tests: parameterized sweeps over (protocol, seed,
 * machine shape) running randomized workloads, checking global coherence
 * invariants during the run, quiescent structural invariants afterwards,
 * exact data results, and protocol health (no stale acks, no losses).
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "obs/flight_recorder.hh"
#include "stress_cases.hh"

namespace limitless
{

/** The DeterminismProperty case name: the protocol's name. */
std::string
protocolName(const testing::TestParamInfo<ProtocolParams> &info)
{
    return ctestName(info.param.name());
}

// Without a PrintTo gtest prints the raw bytes of the parameter into
// every ctest name. ProtocolParams lives in this namespace, so its
// PrintTo must too, where argument-dependent lookup finds it.
void
PrintTo(const ProtocolParams &p, std::ostream *os)
{
    *os << protocolName(testing::TestParamInfo<ProtocolParams>(p, 0));
}

// The ctest name of a property case is the name caseName builds, not
// the raw bytes of the struct (padding included) gtest prints without
// this PrintTo.
void
PrintTo(const PropertyCase &pc, std::ostream *os)
{
    *os << propertyCaseName(pc);
}

namespace
{

std::string
caseName(const testing::TestParamInfo<PropertyCase> &info)
{
    return propertyCaseName(info.param);
}

class ProtocolProperty : public testing::TestWithParam<PropertyCase>
{
};

TEST_P(ProtocolProperty, RandomStressMaintainsCoherence)
{
    runPropertyCase(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sweep, ProtocolProperty,
                         testing::ValuesIn(propertyCases()), caseName);

// --------------------------------------------------- Determinism property

class DeterminismProperty
    : public testing::TestWithParam<ProtocolParams>
{
};

TEST_P(DeterminismProperty, IdenticalSeedsGiveIdenticalCycleCounts)
{
    auto run_once = [&]() {
        MachineConfig cfg;
        cfg.numNodes = 16;
        cfg.protocol = GetParam();
        cfg.seed = 123;
        RandomStressParams rp;
        rp.opsPerProc = 80;
        return runExperiment(cfg, [&] {
            return std::make_unique<RandomStress>(rp);
        }).cycles;
    };
    EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, DeterminismProperty,
    testing::Values(protocols::fullMap(), protocols::dirNB(2),
                    protocols::limitlessStall(4, 50),
                    protocols::limitlessEmulated(4), protocols::chained()),
    protocolName);

// ------------------------------------- Hier degenerate-shape equivalence

/** Run RandomStress on @p cfg and return the full stats-JSON document
 *  (host block omitted — it would carry wall-clock noise). */
std::string
statsJsonFor(MachineConfig cfg, std::uint64_t seed)
{
    FlightRecorder::instance().latency().reset();
    Machine m(cfg);
    RandomStressParams rp;
    rp.opsPerProc = 90;
    rp.seed = seed;
    RandomStress wl(rp);
    wl.install(m);
    const RunResult r = m.run();
    EXPECT_TRUE(r.completed);
    wl.verify(m);
    CoherenceMonitor(m).checkQuiescent();
    std::ostringstream os;
    m.dumpStatsJson(os, r.cycles, nullptr);
    return os.str();
}

TEST(HierDegenerate, ClusterOfOneIsByteIdenticalToFlat)
{
    // hier with a 1-node cluster has no chips to delegate to: the
    // machine must degenerate to the flat directory — same routing,
    // same timing, byte-identical stats (including the absence of every
    // hier-gated JSON field). The CLI rejects this shape up front; the
    // config-level contract is what keeps flat runs bit-stable.
    MachineConfig flat;
    flat.numNodes = 16;
    flat.protocol = protocols::limitlessStall(2, 50);
    flat.seed = 31;
    MachineConfig degenerate = flat;
    degenerate.hier = true;
    EXPECT_EQ(statsJsonFor(flat, 99), statsJsonFor(degenerate, 99));
}

TEST(HierDegenerate, PrivateOnlyIgnoresHier)
{
    // Private-only has no read sharing to delegate: --hier with real
    // chips still degenerates to the flat machine.
    MachineConfig flat;
    flat.numNodes = 16;
    flat.protocol.kind = ProtocolKind::privateOnly;
    flat.topology.clusterSize = 4;
    flat.seed = 31;
    MachineConfig hier = flat;
    hier.hier = true;
    EXPECT_EQ(statsJsonFor(flat, 99), statsJsonFor(hier, 99));
}

// ----------------------------------- Cross-protocol result equivalence

TEST(CrossProtocol, DeterministicResultsAgreeAcrossAllProtocols)
{
    // Data-race-free outputs (the stress counters) must be identical
    // under every protocol: same increments, same sums — only timing may
    // differ. RandomStress::verify already checks sums against host
    // tallies; here we additionally check cycle counts differ (the
    // protocols really are different machines).
    std::vector<Tick> cycles;
    for (const auto &proto :
         {protocols::fullMap(), protocols::dirNB(1),
          protocols::limitlessStall(2, 100), protocols::chained()}) {
        MachineConfig cfg;
        cfg.numNodes = 16;
        cfg.protocol = proto;
        cfg.seed = 55;
        RandomStressParams rp;
        rp.opsPerProc = 100;
        const auto out = runExperiment(cfg, [&] {
            return std::make_unique<RandomStress>(rp);
        });
        cycles.push_back(out.cycles);
    }
    EXPECT_NE(cycles[0], cycles[1]);
}

} // namespace
} // namespace limitless
