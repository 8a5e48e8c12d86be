/**
 * @file
 * Cache-controller unit tests against a captured message stream: request
 * generation, install/complete, replacement traffic, invalidation
 * service, BUSY retry, and set-conflict serialization — the cache half
 * of the protocol in isolation.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache_controller.hh"
#include "machine/address_map.hh"

namespace limitless
{
namespace
{

struct CacheHarness
{
    EventQueue eq;
    AddressMap amap{4, 16};
    CacheController cache;
    std::vector<PacketPtr> sent;
    std::vector<std::uint64_t> completions;

    explicit CacheHarness(CacheParams params = {},
                          ProtocolKind proto = ProtocolKind::fullMap)
        : cache(eq, /*self=*/1, amap, params, proto, /*seed=*/5)
    {
        cache.setSend([this](PacketPtr p) { sent.push_back(std::move(p)); });
    }

    /** Issue an access and run the queue (request goes out). */
    CacheController::IssueClass
    access(MemOpKind kind, Addr a, std::uint64_t v = 0)
    {
        const auto klass = cache.access(
            MemOp{kind, a, v},
            [this](std::uint64_t value) { completions.push_back(value); });
        eq.run();
        return klass;
    }

    /** Deliver a memory-to-cache packet. */
    void
    reply(Opcode op, Addr a, std::vector<std::uint64_t> data = {},
          NodeId src = 0)
    {
        PacketPtr pkt = opcodeCarriesData(op)
                            ? makeDataPacket(src, 1, op, a, data)
                            : makeProtocolPacket(src, 1, op, a);
        if (op == Opcode::INV)
            pkt->operands.push_back(src);
        cache.handlePacket(std::move(pkt));
        eq.run();
    }

    unsigned
    count(Opcode op) const
    {
        unsigned n = 0;
        for (const auto &p : sent)
            n += p->opcode == op;
        return n;
    }

    const Packet *
    last() const
    {
        return sent.empty() ? nullptr : sent.back().get();
    }
};

TEST(CacheController, ReadMissSendsRreqToTheHome)
{
    CacheHarness h;
    const Addr a = h.amap.addrOnNode(2, 0);
    EXPECT_EQ(h.access(MemOpKind::load, a),
              CacheController::IssueClass::miss);
    ASSERT_EQ(h.sent.size(), 1u);
    EXPECT_EQ(h.last()->opcode, Opcode::RREQ);
    EXPECT_EQ(h.last()->dest, 2u);
    EXPECT_TRUE(h.completions.empty()) << "no data yet";
}

TEST(CacheController, RdataInstallsAndCompletesTheLoad)
{
    CacheHarness h;
    const Addr a = h.amap.addrOnNode(2, 0);
    h.access(MemOpKind::load, a);
    h.reply(Opcode::RDATA, h.amap.lineAddr(a), {1234, 5678});
    ASSERT_EQ(h.completions.size(), 1u);
    EXPECT_EQ(h.completions[0], 1234u);
    const CacheLine *cl = h.cache.array().lookup(h.amap.lineAddr(a));
    ASSERT_NE(cl, nullptr);
    EXPECT_EQ(cl->state, CacheState::readOnly);
    // Second load: hit, served locally, no new message.
    const auto before = h.sent.size();
    EXPECT_EQ(h.access(MemOpKind::load, a + 8),
              CacheController::IssueClass::hit);
    EXPECT_EQ(h.completions.back(), 5678u);
    EXPECT_EQ(h.sent.size(), before);
}

TEST(CacheController, WriteNeedsExclusiveEvenWhenReadOnlyResident)
{
    CacheHarness h;
    const Addr a = h.amap.addrOnNode(2, 0);
    h.access(MemOpKind::load, a);
    h.reply(Opcode::RDATA, h.amap.lineAddr(a), {0, 0});
    // Upgrade: WREQ, no REPM (same line stays resident).
    EXPECT_EQ(h.access(MemOpKind::store, a, 42),
              CacheController::IssueClass::miss);
    EXPECT_EQ(h.count(Opcode::WREQ), 1u);
    EXPECT_EQ(h.count(Opcode::REPM), 0u);
    h.reply(Opcode::WDATA, h.amap.lineAddr(a), {0, 0});
    const CacheLine *cl = h.cache.array().lookup(h.amap.lineAddr(a));
    ASSERT_NE(cl, nullptr);
    EXPECT_EQ(cl->state, CacheState::readWrite);
    EXPECT_EQ(cl->words[0], 42u);
    // Subsequent store: pure hit.
    EXPECT_EQ(h.access(MemOpKind::store, a, 43),
              CacheController::IssueClass::hit);
    EXPECT_EQ(cl->words[0], 43u);
}

TEST(CacheController, DirtyVictimIsWrittenBackWithItsData)
{
    CacheParams params;
    params.cacheBytes = 4 * 16; // 4 sets
    CacheHarness h(params);
    const Addr a = h.amap.addrOnNode(2, 0);
    h.access(MemOpKind::store, a, 0xBEEF);
    h.reply(Opcode::WDATA, h.amap.lineAddr(a), {0, 0});
    // Conflicting line (same set): slots spaced by numSets.
    const Addr b = h.amap.addrOnNode(2, 4);
    ASSERT_EQ(h.cache.array().indexOf(h.amap.lineAddr(a)),
              h.cache.array().indexOf(h.amap.lineAddr(b)));
    h.sent.clear();
    h.access(MemOpKind::load, b);
    ASSERT_EQ(h.count(Opcode::REPM), 1u);
    const Packet *repm = h.sent[0].get();
    EXPECT_EQ(repm->opcode, Opcode::REPM);
    EXPECT_EQ(repm->data[0], 0xBEEFu);
    EXPECT_EQ(h.count(Opcode::RREQ), 1u);
}

TEST(CacheController, CleanVictimIsDroppedSilently)
{
    CacheParams params;
    params.cacheBytes = 4 * 16;
    CacheHarness h(params);
    const Addr a = h.amap.addrOnNode(2, 0);
    h.access(MemOpKind::load, a);
    h.reply(Opcode::RDATA, h.amap.lineAddr(a), {0, 0});
    h.sent.clear();
    const Addr b = h.amap.addrOnNode(2, 4);
    h.access(MemOpKind::load, b);
    EXPECT_EQ(h.count(Opcode::REPM), 0u) << "no write-back for clean";
    EXPECT_EQ(h.count(Opcode::RREQ), 1u);
}

TEST(CacheController, InvOnReadOnlyAcksAndInvalidates)
{
    CacheHarness h;
    const Addr a = h.amap.addrOnNode(2, 0);
    h.access(MemOpKind::load, a);
    h.reply(Opcode::RDATA, h.amap.lineAddr(a), {7, 8});
    h.sent.clear();
    h.reply(Opcode::INV, h.amap.lineAddr(a), {}, 2);
    ASSERT_EQ(h.count(Opcode::ACKC), 1u);
    EXPECT_EQ(h.last()->dest, 2u);
    EXPECT_EQ(h.cache.array().lookup(h.amap.lineAddr(a)), nullptr);
}

TEST(CacheController, InvOnDirtyReturnsDataViaUpdate)
{
    CacheHarness h;
    const Addr a = h.amap.addrOnNode(2, 0);
    h.access(MemOpKind::store, a, 0xAB);
    h.reply(Opcode::WDATA, h.amap.lineAddr(a), {0, 0});
    h.sent.clear();
    h.reply(Opcode::INV, h.amap.lineAddr(a), {}, 2);
    ASSERT_EQ(h.count(Opcode::UPDATE), 1u);
    EXPECT_EQ(h.last()->data[0], 0xABu);
    EXPECT_EQ(h.count(Opcode::ACKC), 0u);
}

TEST(CacheController, SpuriousInvForAbsentLineStillAcks)
{
    CacheHarness h;
    const Addr line = h.amap.lineAddr(h.amap.addrOnNode(2, 0));
    h.reply(Opcode::INV, line, {}, 2);
    EXPECT_EQ(h.count(Opcode::ACKC), 1u);
    const auto *spurious = static_cast<const Counter *>(
        h.cache.stats().find("spurious_invs"));
    EXPECT_EQ(spurious->value(), 1u);
}

TEST(CacheController, BusyTriggersRetryWithBackoff)
{
    CacheHarness h;
    const Addr a = h.amap.addrOnNode(2, 0);
    h.access(MemOpKind::load, a);
    ASSERT_EQ(h.count(Opcode::RREQ), 1u);
    const Tick before = h.eq.now();
    h.reply(Opcode::BUSY, h.amap.lineAddr(a));
    EXPECT_EQ(h.count(Opcode::RREQ), 2u) << "request resent";
    EXPECT_GT(h.eq.now(), before) << "after a backoff delay";
    // Second BUSY: the delay grows (exponential backoff).
    const Tick t1 = h.eq.now();
    h.reply(Opcode::BUSY, h.amap.lineAddr(a));
    EXPECT_EQ(h.count(Opcode::RREQ), 3u);
    EXPECT_GT(h.eq.now() - t1, 0u);
    // Eventually served.
    h.reply(Opcode::RDATA, h.amap.lineAddr(a), {5, 6});
    ASSERT_EQ(h.completions.size(), 1u);
    EXPECT_EQ(h.completions[0], 5u);
}

TEST(CacheController, PrivateOnlyUpgradeRetriesAfterBusy)
{
    // A private-only cache holds only its own node's lines; its upgrade
    // of a read copy can still meet a full defer buffer at the home.
    CacheHarness h({}, ProtocolKind::privateOnly);
    const Addr a = h.amap.addrOnNode(1, 0);
    const Addr line = h.amap.lineAddr(a);
    h.access(MemOpKind::load, a);
    h.reply(Opcode::RDATA, line, {3, 4}, 1);
    h.access(MemOpKind::store, a, 8);
    ASSERT_EQ(h.count(Opcode::WREQ), 1u);
    h.reply(Opcode::BUSY, line, {}, 1);
    EXPECT_EQ(h.count(Opcode::WREQ), 2u) << "upgrade resent";
    h.reply(Opcode::WDATA, line, {3, 4}, 1);
    ASSERT_EQ(h.completions.size(), 2u);
    EXPECT_EQ(h.cache.array().lookup(line)->words[0], 8u);
}

TEST(CacheController, AccessesToALineWithPendingTxnAreSerialized)
{
    CacheHarness h;
    const Addr a = h.amap.addrOnNode(2, 0);
    h.access(MemOpKind::load, a);
    // Second access to the same line while the fill is outstanding.
    h.access(MemOpKind::load, a + 8);
    EXPECT_EQ(h.count(Opcode::RREQ), 1u) << "no duplicate request";
    h.reply(Opcode::RDATA, h.amap.lineAddr(a), {11, 22});
    // Both complete: the second from the freshly installed line.
    ASSERT_EQ(h.completions.size(), 2u);
    EXPECT_EQ(h.completions[0], 11u);
    EXPECT_EQ(h.completions[1], 22u);
}

TEST(CacheController, FetchAddAppliesAtomicallyOnExclusiveData)
{
    CacheHarness h;
    const Addr a = h.amap.addrOnNode(2, 0);
    h.access(MemOpKind::fetchAdd, a, 5);
    EXPECT_EQ(h.count(Opcode::WREQ), 1u) << "RMW needs ownership";
    h.reply(Opcode::WDATA, h.amap.lineAddr(a), {100, 0});
    ASSERT_EQ(h.completions.size(), 1u);
    EXPECT_EQ(h.completions[0], 100u) << "returns the old value";
    const CacheLine *cl = h.cache.array().lookup(h.amap.lineAddr(a));
    EXPECT_EQ(cl->words[0], 105u);
}

TEST(CacheController, IdleReportsOutstandingWork)
{
    CacheHarness h;
    EXPECT_TRUE(h.cache.idle());
    const Addr a = h.amap.addrOnNode(2, 0);
    h.access(MemOpKind::load, a);
    EXPECT_FALSE(h.cache.idle());
    h.reply(Opcode::RDATA, h.amap.lineAddr(a), {0, 0});
    EXPECT_TRUE(h.cache.idle());
}

} // namespace
} // namespace limitless
