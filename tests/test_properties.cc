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

#include "harness/experiment.hh"
#include "machine/coherence_monitor.hh"
#include "obs/flight_recorder.hh"
#include "workload/random_stress.hh"

namespace limitless
{

/** The DeterminismProperty case name: the protocol's name. */
std::string
protocolName(const testing::TestParamInfo<ProtocolParams> &info)
{
    std::string s = info.param.name();
    for (char &c : s)
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return s;
}

// Without a PrintTo gtest prints the raw bytes of the parameter into
// every ctest name. ProtocolParams lives in this namespace, so its
// PrintTo must too, where argument-dependent lookup finds it.
void
PrintTo(const ProtocolParams &p, std::ostream *os)
{
    *os << protocolName(testing::TestParamInfo<ProtocolParams>(p, 0));
}

namespace
{

struct PropertyCase
{
    ProtocolParams proto;
    unsigned nodes;
    std::uint64_t seed;
    NetworkKind net;
    unsigned cluster = 1; ///< nodes per chip (cluster-interleaved homes)
    bool hier = false;    ///< two-level directory mode
};

std::string
caseName(const testing::TestParamInfo<PropertyCase> &info)
{
    std::ostringstream os;
    os << info.param.proto.name() << "_" << info.param.nodes << "n_s"
       << info.param.seed
       << (info.param.net == NetworkKind::mesh ? "_mesh" : "_ideal");
    if (info.param.cluster > 1)
        os << "_c" << info.param.cluster;
    if (info.param.hier)
        os << "_hier";
    std::string s = os.str();
    for (char &c : s)
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return s;
}

class ProtocolProperty : public testing::TestWithParam<PropertyCase>
{
};

TEST_P(ProtocolProperty, RandomStressMaintainsCoherence)
{
    const PropertyCase &pc = GetParam();
    MachineConfig cfg;
    cfg.numNodes = pc.nodes;
    cfg.protocol = pc.proto;
    cfg.network = pc.net;
    cfg.seed = pc.seed;
    cfg.topology.clusterSize = pc.cluster;
    cfg.hier = pc.hier;
    // Small cache so replacements (REPM/REPC, spurious INVs) happen.
    cfg.cache.cacheBytes = 16 * 16;

    Machine m(cfg);
    RandomStressParams rp;
    rp.opsPerProc = 120;
    rp.counterLines = 6;
    rp.valueLines = 10;
    rp.seed = pc.seed * 7919 + 13;
    RandomStress wl(rp);
    wl.install(m);

    // Interleave execution with the always-true invariants: periodic
    // checker events fire throughout the run (they abort on violation).
    CoherenceMonitor monitor(m);
    for (Tick t = 300; t <= 9000; t += 300) {
        m.eventQueue().schedule(t, [&monitor]() {
            monitor.checkGlobalInvariants();
        }, EventPriority::stats);
    }
    const RunResult r = m.run();
    ASSERT_TRUE(r.completed);

    wl.verify(m);                 // exact counter sums, well-formed tags
    monitor.checkQuiescent();     // structural directory/cache agreement

    // Protocol health: the ack discipline promises no stray acks, and
    // every request is eventually satisfied (completion already proves
    // the latter).
    EXPECT_EQ(m.sumCounter("mem", "stale_acks"), 0u);
}

std::vector<PropertyCase>
makeCases()
{
    std::vector<PropertyCase> cases;
    const std::vector<ProtocolParams> protos = {
        protocols::fullMap(),
        protocols::dirNB(1),
        protocols::dirNB(2),
        protocols::dirNB(4),
        protocols::limitlessStall(1, 25),
        protocols::limitlessStall(4, 100),
        protocols::limitlessEmulated(2),
        protocols::limitlessEmulated(4),
        protocols::chained(),
    };
    for (const auto &proto : protos)
        for (std::uint64_t seed : {11ull, 29ull})
            cases.push_back(PropertyCase{proto, 16, seed,
                                         NetworkKind::mesh});
    // Shape / network variations on a couple of protocols.
    cases.push_back(PropertyCase{protocols::dirNB(2), 12, 3,
                                 NetworkKind::mesh});
    cases.push_back(PropertyCase{protocols::limitlessStall(4, 50), 9, 4,
                                 NetworkKind::ideal});
    cases.push_back(PropertyCase{protocols::fullMap(), 2, 5,
                                 NetworkKind::mesh});
    // Two-level (hier) machines: four 4-node chips, replacements and
    // recalls hammering the chip-home FSM under every scheme. The
    // limitless configs overflow at both levels (1-2 pointers).
    for (const auto &proto :
         {protocols::fullMap(), protocols::dirNB(2),
          protocols::limitlessStall(1, 25), protocols::limitlessEmulated(2),
          protocols::chained()})
        cases.push_back(PropertyCase{proto, 16, 17, NetworkKind::mesh,
                                     4, true});
    cases.push_back(PropertyCase{protocols::limitlessStall(2, 50), 16, 23,
                                 NetworkKind::ideal, 8, true});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ProtocolProperty,
                         testing::ValuesIn(makeCases()), caseName);

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
