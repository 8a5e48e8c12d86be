/**
 * @file
 * Randomized protocol fuzz: drive every scheme through RandomStress on
 * several machine sizes with Rng-derived seeds, then require (a) exact
 * workload results, (b) quiescent structural coherence, and (c) that
 * every (state, opcode) pair the controllers fired is declared by the
 * scheme's registered transition table — the end-to-end version of the
 * static exhaustiveness test.
 *
 * On failure the test prints the exact scheme + seed and a
 * copy-pasteable limitless-sim command line (including when the
 * machine panics: a panic hook emits the case before the postmortem),
 * then automatically re-runs the same seed on the minimal 4-node
 * machine to report whether the small config reproduces it — the
 * starting point for a limitless-check script.
 */

#include <gtest/gtest.h>

#include <iostream>
#include <memory>
#include <sstream>

#include "sim/log.hh"
#include "stress_cases.hh"

namespace limitless
{

// The ctest name of a fuzz case is the name caseName builds, not the
// raw bytes of the struct (padding included) gtest prints without this
// PrintTo, which must sit in FuzzCase's namespace for lookup to find it.
void
PrintTo(const FuzzCase &fc, std::ostream *os)
{
    *os << fuzzCaseName(fc);
}

namespace
{

/** CLI spelling of a protocol, for the reproduce hint. */
std::string
protocolFlag(const ProtocolParams &p)
{
    std::ostringstream os;
    switch (p.kind) {
      case ProtocolKind::fullMap: os << "full-map"; break;
      case ProtocolKind::limited: os << "dir" << p.pointers << "nb"; break;
      case ProtocolKind::limitless:
        os << "limitless" << p.pointers;
        if (p.limitlessMode == LimitlessMode::fullEmulation)
            os << " --emulate";
        if (!p.trapOnWrite)
            os << " --no-trap-on-write";
        break;
      case ProtocolKind::chained: os << "chained"; break;
      case ProtocolKind::privateOnly: os << "private-only"; break;
    }
    return os.str();
}

std::string
reproduceHint(const FuzzCase &fc, unsigned ops)
{
    std::ostringstream os;
    os << "fuzz case: " << fc.proto.name() << " nodes=" << fc.nodes
       << " seed=" << fc.seed << "\n  reproduce: limitless-sim "
       << "--workload random-stress --protocol " << protocolFlag(fc.proto)
       << " --nodes " << fc.nodes << " --iterations " << ops << " --seed "
       << fc.seed;
    return os.str();
}

/** Case description printed by the panic hook, so even an abort deep in
 *  the machine names the failing seed + scheme before the postmortem. */
std::string g_activeCase;
PanicHook g_prevHook = nullptr;

void
fuzzPanicHook()
{
    if (!g_activeCase.empty())
        std::cerr << "\n==== protocol fuzz: failing case ====\n"
                  << g_activeCase << "\n\n";
    if (g_prevHook)
        g_prevHook();
}

class ProtocolFuzz : public testing::TestWithParam<FuzzCase>
{
  protected:
    void SetUp() override
    {
        g_activeCase = reproduceHint(GetParam(), 60);
        g_prevHook = setPanicHook(&fuzzPanicHook);
    }
    void TearDown() override
    {
        setPanicHook(g_prevHook);
        g_prevHook = nullptr;
        g_activeCase.clear();
    }
};

std::string
caseName(const testing::TestParamInfo<FuzzCase> &info)
{
    return fuzzCaseName(info.param);
}

TEST_P(ProtocolFuzz, ObservedTransitionsAreDeclared)
{
    const FuzzCase &fc = GetParam();
    SCOPED_TRACE(g_activeCase);

    const std::vector<std::string> violations =
        runFuzzCase(fuzzConfig(fc.proto, fc.nodes, fc.seed), 60);
    if (violations.empty())
        return;

    std::ostringstream report;
    report << g_activeCase << "\n  violations:";
    for (const std::string &v : violations)
        report << "\n    " << v;

    // Automatic shrink: the same seed on the minimal 4-node machine
    // with a short script. When it reproduces there, the case is small
    // enough to study under limitless-check / --log.
    const unsigned min_nodes = 4, min_ops = 12;
    g_activeCase = reproduceHint(FuzzCase{fc.proto, min_nodes, fc.seed},
                                 min_ops);
    const std::vector<std::string> minimal =
        runFuzzCase(fuzzConfig(fc.proto, min_nodes, fc.seed), min_ops);
    report << "\n  minimal config (" << min_nodes << " nodes, " << min_ops
           << " ops): "
           << (minimal.empty() ? "does NOT reproduce" : "REPRODUCES");
    for (const std::string &v : minimal)
        report << "\n    " << v;

    FAIL() << report.str();
}

INSTANTIATE_TEST_SUITE_P(Sweep, ProtocolFuzz,
                         testing::ValuesIn(fuzzCases()), caseName);

} // namespace
} // namespace limitless
