/**
 * @file
 * Tests for the all-to-all Transpose workload and the IPI block-transfer
 * service (paper Section 4.2's store-back capability).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "check/coverage.hh"
#include "harness/experiment.hh"
#include "kernel/block_transfer.hh"
#include "machine/coherence_monitor.hh"
#include "workload/transpose.hh"

namespace limitless
{
namespace
{

TEST(Transpose, VerifiesUnderEveryProtocol)
{
    for (const auto &proto :
         {protocols::fullMap(), protocols::dirNB(2),
          protocols::limitlessStall(4, 50),
          protocols::limitlessEmulated(4), protocols::chained()}) {
        MachineConfig cfg;
        cfg.numNodes = 9; // 3x3: asymmetric all-to-all
        cfg.protocol = proto;
        cfg.seed = 43;
        TransposeParams tp;
        tp.rounds = 2;
        const auto out = runExperiment(
            cfg, [&] { return std::make_unique<Transpose>(tp); });
        EXPECT_TRUE(out.completed) << proto.name();
        // All-to-all with worker-set 2: no traps, no evictions.
        EXPECT_EQ(out.readTraps, 0u) << proto.name();
        EXPECT_EQ(out.evictions, 0u) << proto.name();
    }
}

TEST(Transpose, TrafficIsAllToAllNotHotSpot)
{
    MachineConfig cfg;
    cfg.numNodes = 16;
    cfg.protocol = protocols::fullMap();
    cfg.seed = 43;
    Machine m(cfg);
    TransposeParams tp;
    tp.rounds = 2;
    Transpose wl(tp);
    wl.install(m);
    ASSERT_TRUE(m.run().completed);
    wl.verify(m);

    // Every home services a comparable number of requests: the max/min
    // ratio across nodes stays small (contrast: Weather's node 0).
    std::uint64_t lo = ~0ull, hi = 0;
    for (unsigned i = 0; i < 16; ++i) {
        const auto *c = static_cast<const Counter *>(
            m.node(i).statSet("mem")->find("requests"));
        lo = std::min(lo, c->value());
        hi = std::max(hi, c->value());
    }
    EXPECT_LT(hi, lo * 2) << "load should be spread evenly";
}

// ------------------------------------------------------- Block transfer

TEST(BlockTransfer, MovesLinesCoherentlyBetweenNodes)
{
    MachineConfig cfg;
    cfg.numNodes = 8;
    cfg.protocol = protocols::limitlessStall(4, 50);
    cfg.seed = 47;
    Machine m(cfg);
    BlockTransferService xfer(m, 1);
    const AddressMap &amap = m.addressMap();
    const Addr src = amap.addrOnNode(1, 0x40);
    const Addr dst = amap.addrOnNode(5, 0x80);
    const unsigned lines = 6;

    // A reader on node 6 caches one destination line *before* the
    // transfer; the store-back must refresh that copy.
    const Addr watched = dst + 2 * amap.lineBytes();
    bool checked = false;
    unsigned verified = 0;
    m.spawnOn(6, [&, watched](ThreadApi &t) -> Task<> {
        EXPECT_EQ(co_await t.read(watched), 0u);
        // Wait until the transfer completes, then re-read.
        for (;;) {
            const std::uint64_t v = co_await t.read(watched);
            if (v != 0) {
                EXPECT_EQ(v, 100u + 2 * amap.wordsPerLine());
                checked = true;
                break;
            }
            co_await t.compute(15);
        }
    });

    m.spawnOn(1, [&](ThreadApi &t) -> Task<> {
        // Fill the source lines through the coherent interface.
        for (unsigned k = 0; k < lines; ++k) {
            for (unsigned w = 0; w < amap.wordsPerLine(); ++w) {
                co_await t.write(src + k * amap.lineBytes() +
                                     w * bytesPerWord,
                                 100 + k * amap.wordsPerLine() + w);
            }
        }
        // The transfer reads the payload coherently (hits in this
        // cache), so no explicit flush is needed.
        co_await xfer.transfer(t, amap.lineAddr(src),
                               amap.lineAddr(dst), lines);
        // Every destination word holds the payload. Each line's home
        // node stored it through its own cache, where it may still sit
        // dirty, so read it coherently.
        for (unsigned k = 0; k < lines; ++k) {
            for (unsigned w = 0; w < amap.wordsPerLine(); ++w) {
                EXPECT_EQ(co_await t.read(amap.lineAddr(dst) +
                                          k * amap.lineBytes() +
                                          w * bytesPerWord),
                          100 + k * amap.wordsPerLine() + w)
                    << "line " << k << " word " << w;
                ++verified;
            }
        }
    });
    ASSERT_TRUE(m.run().completed);
    CoherenceMonitor(m).checkQuiescent();
    EXPECT_TRUE(checked);
    EXPECT_EQ(xfer.packetsSent(), lines);
    EXPECT_EQ(verified, lines * amap.wordsPerLine());
}

/** Whether a row for (@p state, @p op) of @p kind's home table fired. */
bool
homeRowFired(const CoverageScope &scope, ProtocolKind kind,
             MemState state, Opcode op)
{
    const TableInfo *t =
        ProtocolTableRegistry::instance().find(kind, TableSide::home);
    for (const TransitionRow &row : t->rows)
        if (row.state == static_cast<std::uint8_t>(state) &&
            row.opcode == op && scope.covered(kind, TableSide::home, row.id))
            return true;
    return false;
}

struct StoreBackRun
{
    bool rwRecall = false; ///< a store-back store met the dirty line
    bool rtDefer = false;  ///< one waited out the reader's recall
};

/**
 * Node 1 stores one line back into a destination line (homed on node 5)
 * that a writer has just written: node 6, or under private-only the
 * home node itself, its only cacher. The home node's cache stores the
 * payload, so its write requests meet the line held Read-Write. With
 * @p read_delay >= 0, node 7 reads the line that many cycles after the
 * write, 100 cycles before the transfer starts at the earliest, and its
 * recall of the writer's copy can still be open when the store-back's
 * requests land. Every read sees a value the line held, and after the
 * transfer the stored-back one.
 */
StoreBackRun
storeBackIntoDirtyLine(const ProtocolParams &proto, unsigned defer_depth,
                       int read_delay)
{
    MachineConfig cfg;
    cfg.numNodes = 8;
    cfg.protocol = proto;
    cfg.mem.deferDepth = defer_depth;
    cfg.seed = 47;
    Machine m(cfg);
    BlockTransferService xfer(m, 1);
    const AddressMap &amap = m.addressMap();
    const Addr src = amap.lineAddr(amap.addrOnNode(1, 0x40));
    const Addr dst = amap.lineAddr(amap.addrOnNode(5, 0x80));
    const NodeId writer =
        proto.kind == ProtocolKind::privateOnly ? 5 : 6;
    const unsigned words = amap.wordsPerLine();
    auto payload = [](unsigned w) -> std::uint64_t { return 100 + w; };
    constexpr std::uint64_t dirtyValue = 7;
    bool dirty = false;
    bool done = false;
    unsigned verified = 0;

    CoverageScope scope;
    m.spawnOn(writer, [&](ThreadApi &t) -> Task<> {
        co_await t.write(dst, dirtyValue);
        dirty = true;
        while (!done)
            co_await t.compute(8);
        for (unsigned w = 0; w < words; ++w) {
            EXPECT_EQ(co_await t.read(dst + w * bytesPerWord), payload(w));
            ++verified;
        }
    });
    if (read_delay >= 0) {
        m.spawnOn(7, [&](ThreadApi &t) -> Task<> {
            while (!dirty)
                co_await t.compute(1);
            co_await t.compute(static_cast<Tick>(read_delay));
            const std::uint64_t v = co_await t.read(dst);
            EXPECT_TRUE(v == dirtyValue || v == payload(0)) << v;
        });
    }
    m.spawnOn(1, [&](ThreadApi &t) -> Task<> {
        for (unsigned w = 0; w < words; ++w)
            co_await t.write(src + w * bytesPerWord, payload(w));
        while (!dirty)
            co_await t.compute(1);
        co_await t.compute(100);
        co_await xfer.transfer(t, src, dst, 1);
        done = true;
    });
    EXPECT_TRUE(m.run().completed);
    CoherenceMonitor(m).checkQuiescent();
    EXPECT_EQ(verified, words);
    return {homeRowFired(scope, proto.kind, MemState::readWrite,
                         Opcode::WREQ),
            homeRowFired(scope, proto.kind, MemState::readTransaction,
                         Opcode::WREQ)};
}

/**
 * One scheme's store-backs, at defer depth 0 (a request that meets a
 * transaction is nacked and retried) and 4 (it is parked): into a line
 * another cache holds dirty, and into a line under a read recall, with
 * the reader's start swept over 201 timings. Every run must stay
 * coherent.
 *
 * Under private-only the writer is the home node, whose own cache then
 * stores the payload without a recall; and a reader's recall of that
 * copy never meets the store-back, because the recalled cache's UPDATE
 * precedes its next request on the in-order loopback.
 */
void
expectStoreBacksCoherent(const ProtocolParams &proto)
{
    const bool shared = proto.kind != ProtocolKind::privateOnly;
    for (unsigned depth : {0u, 4u}) {
        SCOPED_TRACE(proto.name() + " deferDepth " +
                     std::to_string(depth));
        EXPECT_EQ(storeBackIntoDirtyLine(proto, depth, -1).rwRecall,
                  shared);
        bool landed = false;
        for (int delay = 0; delay <= 200; ++delay)
            landed |= storeBackIntoDirtyLine(proto, depth, delay).rtDefer;
        EXPECT_EQ(landed, shared);
    }
}

ProtocolParams
privateOnly()
{
    ProtocolParams p;
    p.kind = ProtocolKind::privateOnly;
    return p;
}

TEST(BlockTransfer, StoreBackIsCoherentUnderFullMap)
{
    expectStoreBacksCoherent(protocols::fullMap());
}

TEST(BlockTransfer, StoreBackIsCoherentUnderDir2NB)
{
    expectStoreBacksCoherent(protocols::dirNB(2));
}

TEST(BlockTransfer, StoreBackIsCoherentUnderLimitlessStall)
{
    expectStoreBacksCoherent(protocols::limitlessStall(1, 50));
}

TEST(BlockTransfer, StoreBackIsCoherentUnderLimitlessEmulated)
{
    expectStoreBacksCoherent(protocols::limitlessEmulated(1));
}

TEST(BlockTransfer, StoreBackIsCoherentUnderChained)
{
    expectStoreBacksCoherent(protocols::chained());
}

TEST(BlockTransfer, StoreBackIsCoherentUnderPrivateOnly)
{
    expectStoreBacksCoherent(privateOnly());
}

TEST(BlockTransfer, RejectsNonLocalSource)
{
    MachineConfig cfg;
    cfg.numNodes = 4;
    cfg.protocol = protocols::fullMap();
    Machine m(cfg);
    BlockTransferService xfer(m, 2);
    const Addr remote_src = m.addressMap().addrOnNode(3, 0);
    m.spawnOn(0, [&](ThreadApi &t) -> Task<> {
        co_await xfer.transfer(t, remote_src,
                               m.addressMap().addrOnNode(1, 0), 1);
    });
    EXPECT_DEATH(m.run(), "not homed locally");
}

} // namespace
} // namespace limitless
