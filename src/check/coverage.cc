#include "check/coverage.hh"

#include <cassert>
#include <iomanip>
#include <ostream>

#include "check/check_config.hh"
#include "mem/home/hier_home.hh"
#include "sim/log.hh"

namespace limitless
{

CoverageScope::CoverageScope()
{
    DispatchHooks::instance().setObserver(&CoverageScope::onFire, this);
}

CoverageScope::~CoverageScope()
{
    DispatchHooks::instance().clearObserver();
}

void
CoverageScope::onFire(void *user, const TableInfo &info,
                      const TransitionRow &row)
{
    auto *scope = static_cast<CoverageScope *>(user);
    std::lock_guard<std::mutex> lock(scope->_mu);
    scope->_fired.insert(RowKey{info.kind, info.side, row.id});
}

std::vector<TableCoverage>
collectCoverage(const CoverageScope &scope,
                const std::vector<ProtocolKind> &kinds,
                const std::vector<TableSide> &sides)
{
    registerAllProtocolTables();
    registerAllHierTables();
    std::vector<TableCoverage> out;
    for (ProtocolKind kind : kinds) {
        for (TableSide side : sides) {
            // Private-only has no chip home; every other table exists.
            if (side == TableSide::chip &&
                kind == ProtocolKind::privateOnly)
                continue;
            const TableInfo *info =
                ProtocolTableRegistry::instance().find(kind, side);
            assert(info && "scheme table not registered");
            TableCoverage tc;
            tc.table = info;
            tc.covered.resize(info->rows.size(), false);
            for (const TransitionRow &row : info->rows) {
                if (scope.covered(kind, side, row.id)) {
                    tc.covered[row.id] = true;
                    ++tc.coveredRows;
                }
            }
            out.push_back(std::move(tc));
        }
    }
    return out;
}

void
writeCoverageReport(std::ostream &os,
                    const std::vector<TableCoverage> &coverage)
{
    os << "checker row coverage\n"
       << "====================\n";
    std::size_t dead_total = 0;
    for (const TableCoverage &tc : coverage) {
        const TableInfo &t = *tc.table;
        os << "\nscheme " << t.scheme << " (" << tableSideName(t.side)
           << " side): " << tc.coveredRows << "/" << tc.rows()
           << " rows fired\n";
        for (const TransitionRow &row : t.rows) {
            os << "  " << (tc.covered[row.id] ? "fired" : "DEAD ") << "  "
               << std::right << std::setw(3) << row.id << "  " << std::left
               << std::setw(19) << t.stateName(row.state) << std::setw(10)
               << opcodeName(row.opcode) << row.label << "\n";
            if (!tc.covered[row.id])
                ++dead_total;
        }
        os << std::right;
    }
    os << "\ndead rows: " << dead_total
       << " (each justified in docs/CHECKER.md)\n";
}

std::uint16_t
findRowByLabel(ProtocolKind kind, TableSide side, const std::string &label)
{
    registerAllProtocolTables();
    const TableInfo *info =
        ProtocolTableRegistry::instance().find(kind, side);
    if (!info)
        fatal("no registered table for %s/%s", checkKindName(kind),
              tableSideName(side));
    for (const TransitionRow &row : info->rows)
        if (label == row.label)
            return row.id;
    fatal("no row labelled '%s' in the %s/%s table", label.c_str(),
          info->scheme, tableSideName(side));
}

} // namespace limitless
