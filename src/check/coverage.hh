/**
 * @file
 * Row-coverage accounting over the dispatch hooks: which declared
 * transition rows actually fired during a run, and which are dead
 * (declared but never fired) for it. Two reports are golden: the
 * checker sweep's (tests/golden/checker_coverage.txt) and the
 * random-stress tier's (tests/golden/stress_coverage.txt); every row
 * dead in both is accounted for in docs/CHECKER.md §6.
 */

#ifndef LIMITLESS_CHECK_COVERAGE_HH
#define LIMITLESS_CHECK_COVERAGE_HH

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <set>
#include <tuple>
#include <vector>

#include "proto/protocol_table.hh"

namespace limitless
{

/** RAII scope recording every fired table row process-wide. Only one
 *  scope may be active at a time (the hooks are a singleton), but rows
 *  may fire from several sweep-worker threads at once (`--jobs`); the
 *  fired set is mutex-guarded. Read accessors (fired/covered) are meant
 *  for after the workers have joined. */
class CoverageScope
{
  public:
    CoverageScope();
    ~CoverageScope();

    CoverageScope(const CoverageScope &) = delete;
    CoverageScope &operator=(const CoverageScope &) = delete;

    using RowKey = std::tuple<ProtocolKind, TableSide, std::uint16_t>;

    const std::set<RowKey> &fired() const { return _fired; }

    bool
    covered(ProtocolKind kind, TableSide side, std::uint16_t row) const
    {
        return _fired.count(RowKey{kind, side, row}) != 0;
    }

  private:
    static void onFire(void *user, const TableInfo &info,
                       const TransitionRow &row);

    std::mutex _mu;
    std::set<RowKey> _fired;
};

/** RAII guard flip (fault injection); clears every flip on exit. */
class GuardFlipScope
{
  public:
    GuardFlipScope(ProtocolKind kind, TableSide side, std::uint16_t row)
    {
        DispatchHooks::instance().flipGuard(kind, side, row);
    }
    ~GuardFlipScope() { DispatchHooks::instance().clearFlips(); }

    GuardFlipScope(const GuardFlipScope &) = delete;
    GuardFlipScope &operator=(const GuardFlipScope &) = delete;
};

/** Coverage of one registered table under a sweep. */
struct TableCoverage
{
    const TableInfo *table = nullptr;
    std::vector<bool> covered; ///< indexed by row id
    std::size_t coveredRows = 0;

    std::size_t rows() const { return covered.size(); }
};

/**
 * Coverage for every table of the given schemes on the given sides,
 * scheme by scheme in @p sides order. Private-only has no chip home, so
 * its chip side is skipped; any other missing table is a bug. Builds
 * every table first, so the registry is complete.
 */
std::vector<TableCoverage>
collectCoverage(const CoverageScope &scope,
                const std::vector<ProtocolKind> &kinds,
                const std::vector<TableSide> &sides = {TableSide::home,
                                                       TableSide::cache});

/**
 * Deterministic per-scheme coverage report: per table, each row with
 * its fired/dead status, then a dead-row summary. The golden file
 * tests/golden/checker_coverage.txt is this output for the standard
 * sweep (`limitless-check` with no arguments), and
 * tests/golden/stress_coverage.txt for the random-stress tier.
 */
void writeCoverageReport(std::ostream &os,
                         const std::vector<TableCoverage> &coverage);

/** Look up a row id by its label in a registered table; aborts if the
 *  label is absent (used by fault-injection tests and --flip-guard). */
std::uint16_t findRowByLabel(ProtocolKind kind, TableSide side,
                             const std::string &label);

} // namespace limitless

#endif // LIMITLESS_CHECK_COVERAGE_HH
