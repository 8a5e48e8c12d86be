/**
 * @file
 * Transition-table exhaustiveness tests.
 *
 * The tables are data, so the protocol's message coverage is checkable
 * by inspection: each scheme's declared (state, opcode) set is compared
 * against an exact expected set — removing a transition (or adding an
 * undocumented one) fails the test before any simulation runs. Also
 * checks structural invariants every table must satisfy: a guarded row
 * group ends in an unconditional fallback, and all five schemes agree
 * on the shared hardware subset of the protocol. Last, the controllers'
 * observed-transition bitsets hold every declared pair and report
 * exactly the pairs that fired.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "hier/chip_home.hh"
#include "hier/chip_states.hh"
#include "proto/protocol_table.hh"
#include "proto/states.hh"
#include "workload/random_stress.hh"

namespace limitless
{
namespace
{

using Pair = std::pair<std::uint8_t, Opcode>;
using PairSet = std::set<Pair>;

constexpr std::uint8_t hRO =
    static_cast<std::uint8_t>(MemState::readOnly);
constexpr std::uint8_t hRW =
    static_cast<std::uint8_t>(MemState::readWrite);
constexpr std::uint8_t hRT =
    static_cast<std::uint8_t>(MemState::readTransaction);
constexpr std::uint8_t hWT =
    static_cast<std::uint8_t>(MemState::writeTransaction);
constexpr std::uint8_t hET =
    static_cast<std::uint8_t>(MemState::evictTransaction);

constexpr std::uint8_t cI =
    static_cast<std::uint8_t>(CacheState::invalid);
constexpr std::uint8_t cRO =
    static_cast<std::uint8_t>(CacheState::readOnly);
constexpr std::uint8_t cRW =
    static_cast<std::uint8_t>(CacheState::readWrite);

const TableInfo &
table(ProtocolKind kind, TableSide side)
{
    registerAllProtocolTables();
    const TableInfo *t =
        ProtocolTableRegistry::instance().find(kind, side);
    EXPECT_NE(t, nullptr);
    return *t;
}

PairSet
declaredPairs(const TableInfo &t)
{
    PairSet pairs;
    for (const TransitionRow &row : t.rows)
        pairs.insert({row.state, row.opcode});
    return pairs;
}

/** Expected home-side pairs for the four pointer-directory schemes
 *  (full-map, limited, limitless, private); @p evict adds the limited /
 *  limitless pointer-eviction state. @p private_only swaps the
 *  Read-Write RREQ/WREQ pairs (no second cacher can send them) for the
 *  recalls of a remote read (RUNC) and write (WUPD), and adds the
 *  RUNC and Read-Transaction WUPD defers. No state but a transaction
 *  takes an ACKC, and in the other schemes a WUPD, which only an
 *  update-mode line sends, never meets a line held exclusively. */
PairSet
pointerHomePairs(bool evict, bool private_only)
{
    PairSet s;
    for (Opcode op : {Opcode::RREQ, Opcode::WREQ, Opcode::WUPD})
        s.insert({hRO, op});
    s.insert({hRW, Opcode::REPM});
    for (std::uint8_t st : {hRT, hWT})
        for (Opcode op : {Opcode::RREQ, Opcode::WREQ, Opcode::UPDATE,
                          Opcode::REPM, Opcode::ACKC})
            s.insert({st, op});
    s.insert({hWT, Opcode::WUPD});
    if (private_only) {
        for (std::uint8_t st : {hRO, hRW, hRT, hWT})
            s.insert({st, Opcode::RUNC});
        s.insert({hRW, Opcode::WUPD});
        s.insert({hRT, Opcode::WUPD});
    } else {
        s.insert({hRW, Opcode::RREQ});
        s.insert({hRW, Opcode::WREQ});
    }
    if (evict)
        for (Opcode op : {Opcode::RREQ, Opcode::WREQ, Opcode::WUPD,
                          Opcode::ACKC})
            s.insert({hET, op});
    return s;
}

PairSet
chainedHomePairs()
{
    PairSet s;
    for (Opcode op : {Opcode::RREQ, Opcode::WREQ, Opcode::REPC})
        s.insert({hRO, op});
    for (Opcode op : {Opcode::RREQ, Opcode::WREQ, Opcode::REPM,
                      Opcode::REPC})
        s.insert({hRW, op});
    for (std::uint8_t st : {hRT, hWT})
        for (Opcode op : {Opcode::RREQ, Opcode::WREQ, Opcode::REPC,
                          Opcode::UPDATE, Opcode::REPM, Opcode::ACKC})
            s.insert({st, op});
    for (Opcode op : {Opcode::RREQ, Opcode::WREQ, Opcode::REPC,
                      Opcode::ACKC})
        s.insert({hET, op});
    return s;
}

/** Cache-side pairs; chained swaps MUPD/WACK for REPC_ACK, and a
 *  private-only read copy is never invalidated (no home sends an INV to
 *  its line's only reader). */
PairSet
cachePairs(bool chained, bool private_only = false)
{
    PairSet s;
    for (Opcode op : {Opcode::RDATA, Opcode::WDATA, Opcode::INV,
                      Opcode::BUSY})
        s.insert({cI, op});
    for (Opcode op : {Opcode::WDATA, Opcode::BUSY})
        s.insert({cRO, op});
    if (!private_only)
        s.insert({cRO, Opcode::INV});
    s.insert({cRW, Opcode::INV});
    if (chained) {
        s.insert({cI, Opcode::REPC_ACK});
        s.insert({cRO, Opcode::REPC_ACK});
    } else {
        for (Opcode op : {Opcode::MUPD, Opcode::WACK})
            for (std::uint8_t st : {cI, cRO})
                s.insert({st, op});
    }
    return s;
}

// --------------------------------------------------------- exact coverage

TEST(ProtocolTableExhaustive, FullMapHome)
{
    EXPECT_EQ(declaredPairs(table(ProtocolKind::fullMap,
                                  TableSide::home)),
              pointerHomePairs(false, false));
}

TEST(ProtocolTableExhaustive, PrivateHome)
{
    EXPECT_EQ(declaredPairs(table(ProtocolKind::privateOnly,
                                  TableSide::home)),
              pointerHomePairs(false, true));
}

TEST(ProtocolTableExhaustive, LimitedHome)
{
    EXPECT_EQ(declaredPairs(table(ProtocolKind::limited,
                                  TableSide::home)),
              pointerHomePairs(true, false));
}

TEST(ProtocolTableExhaustive, LimitlessHome)
{
    EXPECT_EQ(declaredPairs(table(ProtocolKind::limitless,
                                  TableSide::home)),
              pointerHomePairs(true, false));
}

TEST(ProtocolTableExhaustive, ChainedHome)
{
    EXPECT_EQ(declaredPairs(table(ProtocolKind::chained,
                                  TableSide::home)),
              chainedHomePairs());
}

TEST(ProtocolTableExhaustive, CacheSides)
{
    for (ProtocolKind kind :
         {ProtocolKind::fullMap, ProtocolKind::limited,
          ProtocolKind::limitless, ProtocolKind::privateOnly})
        EXPECT_EQ(declaredPairs(table(kind, TableSide::cache)),
                  cachePairs(false, kind == ProtocolKind::privateOnly))
            << "scheme " << table(kind, TableSide::cache).scheme;
    EXPECT_EQ(declaredPairs(table(ProtocolKind::chained,
                                  TableSide::cache)),
              cachePairs(true));
}

// ------------------------------------------------- structural invariants

/** Every (state, opcode) group must end in an unconditional row, or a
 *  run where all guards fail would panic on a declared pair. */
TEST(ProtocolTableStructure, GuardChainsEndUnconditional)
{
    registerAllProtocolTables();
    for (const TableInfo *t :
         ProtocolTableRegistry::instance().tables()) {
        std::map<Pair, const TransitionRow *> last;
        for (const TransitionRow &row : t->rows)
            last[{row.state, row.opcode}] = &row;
        for (const auto &[pair, row] : last) {
            EXPECT_STREQ(row->guardName, "-")
                << t->scheme << "/" << tableSideName(t->side) << " ("
                << t->stateName(pair.first) << ", "
                << opcodeName(pair.second)
                << ") can fall through every guard";
        }
    }
}

/** Transition ids must match declaration order (the flight recorder
 *  tags trace events with them). */
TEST(ProtocolTableStructure, IdsAreDense)
{
    registerAllProtocolTables();
    for (const TableInfo *t :
         ProtocolTableRegistry::instance().tables())
        for (std::size_t i = 0; i < t->rows.size(); ++i)
            EXPECT_EQ(t->rows[i].id, i) << t->scheme;
}

/**
 * The hardware subset every DirNNB variant shares (paper Table 3): all
 * five schemes must serve the same request/ack skeleton, whatever they
 * bolt on top. Acks land only in the transactions that count them.
 */
TEST(ProtocolTableStructure, SchemesAgreeOnSharedHardwareSubset)
{
    registerAllProtocolTables();
    for (ProtocolKind kind :
         {ProtocolKind::fullMap, ProtocolKind::limited,
          ProtocolKind::limitless, ProtocolKind::chained,
          ProtocolKind::privateOnly}) {
        const TableInfo &home = table(kind, TableSide::home);
        for (Opcode op : {Opcode::RREQ, Opcode::WREQ})
            EXPECT_TRUE(home.declares(hRO, op)) << home.scheme;
        EXPECT_TRUE(home.declares(hRW, Opcode::REPM)) << home.scheme;
        for (std::uint8_t st : {hRO, hRW})
            EXPECT_FALSE(home.declares(st, Opcode::ACKC)) << home.scheme;
        for (std::uint8_t st : {hRT, hWT})
            for (Opcode op : {Opcode::UPDATE, Opcode::REPM,
                              Opcode::ACKC})
                EXPECT_TRUE(home.declares(st, op)) << home.scheme;

        const TableInfo &cache = table(kind, TableSide::cache);
        for (Opcode op : {Opcode::RDATA, Opcode::WDATA, Opcode::INV,
                          Opcode::BUSY})
            EXPECT_TRUE(cache.declares(cI, op)) << cache.scheme;
        for (Opcode op : {Opcode::WDATA, Opcode::BUSY})
            EXPECT_TRUE(cache.declares(cRO, op)) << cache.scheme;
        EXPECT_TRUE(cache.declares(cRW, Opcode::INV)) << cache.scheme;
    }
}

TEST(ProtocolTableStructure, RegistryHoldsAllTenTables)
{
    registerAllProtocolTables();
    const auto &tables = ProtocolTableRegistry::instance().tables();
    EXPECT_EQ(tables.size(), 10u);
    for (ProtocolKind kind :
         {ProtocolKind::fullMap, ProtocolKind::limited,
          ProtocolKind::limitless, ProtocolKind::chained,
          ProtocolKind::privateOnly})
        for (TableSide side : {TableSide::home, TableSide::cache})
            EXPECT_NE(ProtocolTableRegistry::instance().find(kind, side),
                      nullptr);
}

// ------------------------------------------------- observed transitions

TEST(ObservedTransitions, VisitsEachNotedPairOnceInOrder)
{
    const auto last = static_cast<std::uint8_t>(numChipStates - 1);
    ObservedTransitions<numChipStates> seen;
    seen.note(last, Opcode::WACK); // the highest bit
    seen.note(3, Opcode::INV);
    seen.note(0, Opcode::RREQ);
    seen.note(3, Opcode::INV);
    std::vector<Pair> got;
    seen.forEach([&](std::uint8_t s, Opcode op) { got.push_back({s, op}); });
    const std::vector<Pair> want = {
        {0, Opcode::RREQ}, {3, Opcode::INV}, {last, Opcode::WACK}};
    EXPECT_EQ(got, want);
}

/** The bitsets are sized from the state enums and the protocol opcode
 *  bound; every pair a table declares (the only pairs that can fire)
 *  must fit. */
TEST(ObservedTransitions, EveryDeclaredPairFitsTheBitsets)
{
    registerAllProtocolTables();
    const std::map<TableSide, std::size_t> states = {
        {TableSide::home, numMemStates},
        {TableSide::cache, numCacheStates},
        {TableSide::chip, numChipStates}};
    for (const TableInfo *t : ProtocolTableRegistry::instance().tables())
        for (const TransitionRow &row : t->rows) {
            EXPECT_LT(row.state, states.at(t->side)) << t->scheme;
            EXPECT_LT(static_cast<std::size_t>(row.opcode),
                      numProtocolOpcodes)
                << t->scheme << " " << opcodeName(row.opcode);
        }
}

/** What the controllers report to the coherence monitor is exactly
 *  what fired on them: per table side, the union over nodes equals the
 *  pairs the dispatch observer saw, chip homes included. */
TEST(ObservedTransitions, ControllersReportExactlyWhatFired)
{
    std::map<TableSide, PairSet> fired;
    DispatchHooks::instance().setObserver(
        [](void *user, const TableInfo &info, const TransitionRow &row) {
            (*static_cast<std::map<TableSide, PairSet> *>(user))[info.side]
                .insert({row.state, row.opcode});
        },
        &fired);
    MachineConfig cfg;
    cfg.numNodes = 16;
    cfg.protocol = protocols::limitlessStall(4, 50);
    cfg.topology.clusterSize = 4;
    cfg.hier = true;
    cfg.cache.cacheBytes = 16 * 16;
    Machine m(cfg);
    RandomStressParams rp;
    rp.opsPerProc = 120;
    rp.seed = 17;
    RandomStress wl(rp);
    wl.install(m);
    const bool completed = m.run().completed;
    DispatchHooks::instance().clearObserver();
    ASSERT_TRUE(completed);

    std::map<TableSide, PairSet> seen;
    const auto into = [](PairSet &s) {
        return [&s](std::uint8_t st, Opcode op) { s.insert({st, op}); };
    };
    for (unsigned i = 0; i < m.numNodes(); ++i) {
        m.node(i).cache().forEachObservedTransition(
            into(seen[TableSide::cache]));
        m.node(i).mem().forEachObservedTransition(
            into(seen[TableSide::home]));
        if (const ChipHomeController *chip = m.node(i).chipHome())
            chip->forEachObservedTransition(into(seen[TableSide::chip]));
    }
    ASSERT_EQ(fired.size(), 3u);
    EXPECT_EQ(seen, fired);
}

} // namespace
} // namespace limitless
