/**
 * @file
 * The random-stress tier: the case lists and runners of the fuzz and
 * property suites. Each suite asserts on its own cases
 * (test_protocol_fuzz.cc, test_properties.cc); test_stress_coverage.cc
 * replays every case under one CoverageScope and pins which table rows
 * the tier fires.
 */

#ifndef LIMITLESS_TESTS_STRESS_CASES_HH
#define LIMITLESS_TESTS_STRESS_CASES_HH

#include <gtest/gtest.h>

#include <cctype>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "machine/coherence_monitor.hh"
#include "sim/rng.hh"
#include "workload/random_stress.hh"

namespace limitless
{

// ------------------------------------------------------------ fuzz tier

struct FuzzCase
{
    ProtocolParams proto;
    unsigned nodes;
    std::uint64_t seed;
};

/** @p s spelled for a ctest name: every character that is not a letter
 *  or digit becomes '_'. */
inline std::string
ctestName(std::string s)
{
    for (char &c : s)
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return s;
}

/** The case's ctest name: protocol (with "_ta" under Trap-Always),
 *  machine size and seed. */
inline std::string
fuzzCaseName(const FuzzCase &fc)
{
    std::ostringstream os;
    os << fc.proto.name() << (fc.proto.trapOnWrite ? "" : " ta") << "_"
       << fc.nodes << "n_s" << fc.seed;
    return ctestName(os.str());
}

/** The fuzz tier's machine: the case's protocol, size and seed with a
 *  tiny cache, so replacements and spurious INVs exercise the rare
 *  rows, not just the fill path. */
inline MachineConfig
fuzzConfig(const ProtocolParams &proto, unsigned nodes, std::uint64_t seed)
{
    MachineConfig cfg;
    cfg.numNodes = nodes;
    cfg.protocol = proto;
    cfg.seed = seed;
    cfg.cache.cacheBytes = 16 * 16;
    return cfg;
}

/** Run RandomStress for @p ops operations per processor on @p cfg
 *  (after @p prepare, if given, has seen the machine) and return every
 *  coherence violation (empty = clean). Uses the monitor's
 *  non-aborting collectors so a failure is reported, not abort()ed. */
inline std::vector<std::string>
runFuzzCase(const MachineConfig &cfg, unsigned ops,
            const std::function<void(Machine &)> &prepare = nullptr)
{
    Machine m(cfg);
    if (prepare)
        prepare(m);
    RandomStressParams rp;
    rp.opsPerProc = ops;
    rp.counterLines = 4;
    rp.valueLines = 8;
    rp.seed = cfg.seed;
    RandomStress wl(rp);
    wl.install(m);

    std::vector<std::string> out;
    const RunResult r = m.run();
    if (!r.completed) {
        out.push_back("run did not complete");
        return out;
    }
    wl.verify(m);

    CoherenceMonitor monitor(m);
    for (const CoherenceViolation &v : monitor.collectGlobalViolations())
        out.push_back(v.what);
    for (const CoherenceViolation &v :
         monitor.collectQuiescentViolations())
        out.push_back(v.what);
    for (const CoherenceViolation &v :
         monitor.collectUndeclaredTransitions())
        out.push_back(v.what);
    return out;
}

inline std::vector<FuzzCase>
fuzzCases()
{
    ProtocolParams privateOnly;
    privateOnly.kind = ProtocolKind::privateOnly;
    const std::vector<ProtocolParams> protos = {
        protocols::fullMap(),
        protocols::dirNB(2),
        protocols::limitlessStall(4, 50),
        protocols::limitlessEmulated(2),
        protocols::chained(),
        privateOnly,
    };
    // Derive the per-case seeds from the repo's own generator so the
    // sweep is deterministic but not hand-picked.
    Rng rng(0xf022eedull);
    std::vector<FuzzCase> cases;
    for (const auto &proto : protos)
        for (unsigned nodes : {4u, 9u, 16u})
            cases.push_back(FuzzCase{proto, nodes,
                                     rng.range(1, 1u << 20)});
    // Trap-Always under full emulation: every request to an overflowed
    // line goes through the trap handler, and every response past it.
    ProtocolParams trapAlways = protocols::limitlessEmulated(2);
    trapAlways.trapOnWrite = false;
    cases.push_back(FuzzCase{trapAlways, 16, rng.range(1, 1u << 20)});
    return cases;
}

// -------------------------------------------------------- property tier

struct PropertyCase
{
    ProtocolParams proto;
    unsigned nodes;
    std::uint64_t seed;
    NetworkKind net;
    unsigned cluster = 1; ///< nodes per chip (cluster-interleaved homes)
    bool hier = false;    ///< two-level directory mode
};

/** The case's ctest name: protocol, shape, seed and network. */
inline std::string
propertyCaseName(const PropertyCase &pc)
{
    std::ostringstream os;
    os << pc.proto.name() << "_" << pc.nodes << "n_s" << pc.seed
       << (pc.net == NetworkKind::mesh ? "_mesh" : "_ideal");
    if (pc.cluster > 1)
        os << "_c" << pc.cluster;
    if (pc.hier)
        os << "_hier";
    return ctestName(os.str());
}

/**
 * Run RandomStress on the case's machine, checking the global
 * invariants throughout the run, then exact data results, quiescent
 * structural agreement and protocol health (no stale acks). Failures
 * are gtest failures; an invariant violation aborts.
 */
inline void
runPropertyCase(const PropertyCase &pc)
{
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

inline std::vector<PropertyCase>
propertyCases()
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

} // namespace limitless

#endif // LIMITLESS_TESTS_STRESS_CASES_HH
