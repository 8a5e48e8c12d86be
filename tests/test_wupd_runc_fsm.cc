/**
 * @file
 * Directed memory-FSM tests for the reproduction's extension opcodes:
 * WUPD (write-update) in every reachable state, and RUNC (uncached
 * read) including the dirty-line recall. RUNC and the WUPD recall of a
 * dirty line run on the private-only home, the one scheme whose table
 * declares them.
 */

#include <gtest/gtest.h>

#include <vector>

#include "harness/experiment.hh"
#include "machine/address_map.hh"
#include "mem/memory_controller.hh"

namespace limitless
{
namespace
{

struct Harness
{
    EventQueue eq;
    AddressMap amap{4, 16};
    MemoryController mc;
    std::vector<PacketPtr> sent;

    explicit Harness(ProtocolParams proto = protocols::fullMap())
        : mc(eq, 0, amap, proto, MemParams{})
    {
        mc.setSend([this](PacketPtr p) { sent.push_back(std::move(p)); });
        mc.setTrapStall([](Tick) {});
        mc.setDivert([](PacketPtr) { FAIL() << "unexpected divert"; });
    }

    Addr line(std::uint64_t slot = 0) const
    {
        return amap.addrOnNode(0, slot);
    }

    void
    inject(PacketPtr pkt)
    {
        mc.enqueue(std::move(pkt));
        eq.run();
    }

    void
    wupd(NodeId src, Addr a, unsigned word, MemOpKind kind,
         std::uint64_t value)
    {
        auto pkt = makeProtocolPacket(src, 0, Opcode::WUPD, a);
        pkt->operands.push_back(word);
        pkt->operands.push_back(static_cast<std::uint64_t>(kind));
        pkt->operands.push_back(value);
        inject(std::move(pkt));
    }

    unsigned
    count(Opcode op, NodeId dest = invalidNode) const
    {
        unsigned n = 0;
        for (const auto &p : sent)
            n += p->opcode == op &&
                 (dest == invalidNode || p->dest == dest);
        return n;
    }

    const Packet *
    lastOf(Opcode op) const
    {
        for (auto it = sent.rbegin(); it != sent.rend(); ++it)
            if ((*it)->opcode == op)
                return it->get();
        return nullptr;
    }
};

/** Private-only caches read remote lines uncached (RUNC, which only
 *  this home table declares) and write them at the home (WUPD). */
ProtocolParams
privateOnly()
{
    ProtocolParams p;
    p.kind = ProtocolKind::privateOnly;
    return p;
}

TEST(WupdFsm, UnsharedLineAppliesAndAcksImmediately)
{
    Harness h;
    h.wupd(2, h.line(), 0, MemOpKind::store, 77);
    ASSERT_EQ(h.count(Opcode::WACK, 2), 1u);
    EXPECT_EQ(h.lastOf(Opcode::WACK)->operands.at(1), 0u) << "old value";
    EXPECT_EQ(h.mc.readLine(h.line())[0], 77u);
    EXPECT_EQ(h.mc.lineState(h.line()), MemState::readOnly);
}

TEST(WupdFsm, FetchAddAtMemoryReturnsOldValue)
{
    Harness h;
    h.wupd(2, h.line(), 1, MemOpKind::fetchAdd, 5);
    h.wupd(3, h.line(), 1, MemOpKind::fetchAdd, 7);
    ASSERT_EQ(h.count(Opcode::WACK), 2u);
    EXPECT_EQ(h.lastOf(Opcode::WACK)->operands.at(1), 5u);
    EXPECT_EQ(h.mc.readLine(h.line())[1], 12u);
}

TEST(WupdFsm, SharersAreRefreshedAndAckedBeforeTheWack)
{
    Harness h;
    h.inject(makeProtocolPacket(1, 0, Opcode::RREQ, h.line()));
    h.inject(makeProtocolPacket(2, 0, Opcode::RREQ, h.line()));
    h.sent.clear();
    h.wupd(3, h.line(), 0, MemOpKind::store, 9);
    EXPECT_EQ(h.count(Opcode::MUPD, 1), 1u);
    EXPECT_EQ(h.count(Opcode::MUPD, 2), 1u);
    EXPECT_EQ(h.count(Opcode::WACK, 3), 0u) << "not before the acks";
    EXPECT_EQ(h.lastOf(Opcode::MUPD)->data[0], 9u)
        << "refresh carries the updated line";
    // Acks arrive.
    auto ack1 = makeProtocolPacket(1, 0, Opcode::ACKC, h.line());
    h.inject(std::move(ack1));
    EXPECT_EQ(h.count(Opcode::WACK, 3), 0u);
    auto ack2 = makeProtocolPacket(2, 0, Opcode::ACKC, h.line());
    h.inject(std::move(ack2));
    EXPECT_EQ(h.count(Opcode::WACK, 3), 1u);
    EXPECT_EQ(h.mc.lineState(h.line()), MemState::readOnly)
        << "update-mode lines never become exclusive";
    // The sharer set is intact.
    EXPECT_TRUE(h.mc.directory().contains(h.line(), 1));
    EXPECT_TRUE(h.mc.directory().contains(h.line(), 2));
}

TEST(WupdFsm, PrivateOnlyRemoteWriteRecallsTheHomeNodesCopy)
{
    // Only the home node (0) caches a private-only line. A WUPD against
    // the line it holds dirty recalls the data, then applies the write
    // to it.
    const NodeId owner = 0;
    Harness h(privateOnly());
    h.inject(makeProtocolPacket(owner, 0, Opcode::WREQ, h.line()));
    ASSERT_EQ(h.mc.lineState(h.line()), MemState::readWrite);
    h.sent.clear();
    h.wupd(2, h.line(), 0, MemOpKind::fetchAdd, 10);
    EXPECT_EQ(h.count(Opcode::INV, owner), 1u) << "owner recalled";
    EXPECT_EQ(h.count(Opcode::WACK), 0u);
    // Owner returns its dirty data (word0 = 100).
    h.inject(
        makeDataPacket(owner, 0, Opcode::UPDATE, h.line(), {100, 0}));
    ASSERT_EQ(h.count(Opcode::WACK, 2), 1u);
    EXPECT_EQ(h.lastOf(Opcode::WACK)->operands.at(1), 100u)
        << "old value comes from the recalled data";
    EXPECT_EQ(h.mc.readLine(h.line())[0], 110u);
    EXPECT_EQ(h.mc.lineState(h.line()), MemState::readOnly);
}

// ------------------------------------------------------------- RUNC

TEST(RuncFsm, ReadsWithoutRecordingAPointer)
{
    Harness h(privateOnly());
    h.inject(makeProtocolPacket(2, 0, Opcode::RUNC, h.line()));
    ASSERT_EQ(h.count(Opcode::RDATA, 2), 1u);
    EXPECT_EQ(h.mc.directory().numSharers(h.line()), 0u);
}

TEST(RuncFsm, DirtyLineIsRecalledForTheUncachedReader)
{
    Harness h(privateOnly());
    h.inject(makeProtocolPacket(1, 0, Opcode::WREQ, h.line()));
    h.sent.clear();
    h.inject(makeProtocolPacket(2, 0, Opcode::RUNC, h.line()));
    EXPECT_EQ(h.count(Opcode::INV, 1), 1u);
    EXPECT_EQ(h.count(Opcode::RDATA, 2), 0u);
    h.inject(makeDataPacket(1, 0, Opcode::UPDATE, h.line(), {42, 43}));
    ASSERT_EQ(h.count(Opcode::RDATA, 2), 1u);
    EXPECT_EQ(h.lastOf(Opcode::RDATA)->data[0], 42u);
    EXPECT_EQ(h.mc.directory().numSharers(h.line()), 0u)
        << "the uncached reader is not tracked";
    EXPECT_EQ(h.mc.lineState(h.line()), MemState::readOnly);
}

TEST(RuncFsm, HomeNodeReRequestAfterACrossedReplacementIsParked)
{
    // The home node (0) owns the line; its REPM crosses the recall a
    // remote RUNC starts, and it asks for the line again before its
    // ACKC for the recall INV: the re-requests wait out the recall.
    Harness h(privateOnly());
    h.inject(makeProtocolPacket(0, 0, Opcode::WREQ, h.line()));
    h.inject(makeProtocolPacket(2, 0, Opcode::RUNC, h.line()));
    ASSERT_EQ(h.mc.lineState(h.line()), MemState::readTransaction);
    h.inject(makeDataPacket(0, 0, Opcode::REPM, h.line(), {5, 6}));
    h.inject(makeProtocolPacket(0, 0, Opcode::RREQ, h.line()));
    h.inject(makeProtocolPacket(0, 0, Opcode::WREQ, h.line()));
    EXPECT_EQ(h.count(Opcode::RDATA), 0u) << "nothing answered yet";
    h.sent.clear();
    h.inject(makeProtocolPacket(0, 0, Opcode::ACKC, h.line()));
    ASSERT_EQ(h.count(Opcode::RDATA, 2), 1u);
    EXPECT_EQ(h.lastOf(Opcode::RDATA)->data[0], 5u)
        << "the uncached reader gets the replaced data";
    EXPECT_EQ(h.count(Opcode::RDATA, 0), 1u) << "parked read replays";
    EXPECT_EQ(h.count(Opcode::WDATA, 0), 1u) << "then the parked write";
    EXPECT_EQ(h.mc.lineState(h.line()), MemState::readWrite);
}

TEST(RuncFsm, DeferredDuringTransactions)
{
    Harness h(privateOnly());
    h.inject(makeProtocolPacket(1, 0, Opcode::RREQ, h.line()));
    h.inject(makeProtocolPacket(3, 0, Opcode::WREQ, h.line()));
    ASSERT_EQ(h.mc.lineState(h.line()), MemState::writeTransaction);
    h.sent.clear();
    h.inject(makeProtocolPacket(2, 0, Opcode::RUNC, h.line()));
    EXPECT_EQ(h.count(Opcode::RDATA, 2), 0u) << "parked";
    h.inject(makeProtocolPacket(1, 0, Opcode::ACKC, h.line()));
    // Write completes; the parked RUNC replays (dirty recall of node 3).
    EXPECT_EQ(h.count(Opcode::WDATA, 3), 1u);
    EXPECT_EQ(h.count(Opcode::INV, 3), 1u);
    h.inject(makeDataPacket(3, 0, Opcode::UPDATE, h.line(), {7, 8}));
    EXPECT_EQ(h.count(Opcode::RDATA, 2), 1u);
}

} // namespace
} // namespace limitless
