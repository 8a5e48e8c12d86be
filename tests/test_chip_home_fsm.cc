/**
 * @file
 * Directed chip-home FSM tests (two-level mode): one ChipHomeController
 * driven packet by packet, for the transient-state defers that random
 * stress reaches only by seed luck. Node 0 is the chip home of chip 0
 * (nodes 0-3) for a line whose global home is node 4 on chip 1.
 */

#include <gtest/gtest.h>

#include <vector>

#include "harness/experiment.hh"
#include "hier/chip_home.hh"
#include "machine/address_map.hh"

namespace limitless
{
namespace
{

AddressMap
twoChips()
{
    AddressMap amap(8, 16, 4ull << 20, HomeMapping::interleaved, 4);
    amap.setHier(true);
    return amap;
}

struct ChipHarness
{
    EventQueue eq;
    AddressMap amap = twoChips();
    ChipHomeController chip;
    std::vector<PacketPtr> sent;
    const Addr line = amap.lineAddr(amap.addrOnNode(4, 0));

    explicit ChipHarness(const ProtocolParams &proto)
        : chip(eq, 0, amap, proto, MemParams{})
    {
        chip.setSend([this](PacketPtr p) { sent.push_back(std::move(p)); });
        chip.setTrapStall([](Tick) {});
    }

    void
    inject(PacketPtr pkt)
    {
        chip.enqueue(std::move(pkt));
        eq.run();
    }

    /** A packet from local cache (or the parent) @p src. */
    void
    from(NodeId src, Opcode op)
    {
        inject(opcodeCarriesData(op)
                   ? makeDataPacket(src, 0, op, line, {1, 2})
                   : makeProtocolPacket(src, 0, op, line));
    }

    unsigned
    count(Opcode op, NodeId dest) const
    {
        unsigned n = 0;
        for (const auto &p : sent)
            n += p->opcode == op && p->dest == dest;
        return n;
    }
};

TEST(ChipHomeFsm, ChipHomesTheRemoteLine)
{
    ChipHarness h(protocols::fullMap());
    ASSERT_EQ(h.amap.homeOf(h.line), 4u);
    ASSERT_EQ(h.amap.chipHomeOf(h.line, 0), 0u);
}

TEST(ChipHomeFsm, LocalRequestsWaitOutAnUpgradeCrossing)
{
    // Node 1 reads, then upgrades; the parent's INV crosses the upgrade
    // while node 1 still holds its read copy (hFillWriteInv). Requests
    // from nodes 2 and 3 wait until the upgrade has been granted.
    ChipHarness h(protocols::fullMap());
    h.from(1, Opcode::RREQ);
    h.from(4, Opcode::RDATA);
    ASSERT_EQ(h.chip.lineState(h.line), ChipState::hCopy);
    h.from(1, Opcode::WREQ);
    ASSERT_EQ(h.chip.lineState(h.line), ChipState::hFillWrite);
    h.from(4, Opcode::INV);
    ASSERT_EQ(h.chip.lineState(h.line), ChipState::hFillWriteInv);
    EXPECT_EQ(h.count(Opcode::INV, 1), 1u) << "kept copy invalidated";

    h.from(2, Opcode::RREQ);
    h.from(3, Opcode::WREQ);
    EXPECT_EQ(h.chip.lineState(h.line), ChipState::hFillWriteInv);
    EXPECT_EQ(h.count(Opcode::RDATA, 2) + h.count(Opcode::WDATA, 3), 0u)
        << "both parked";

    h.from(1, Opcode::ACKC);
    EXPECT_EQ(h.count(Opcode::ACKC, 4), 1u) << "parent answered";
    h.from(4, Opcode::WDATA);
    EXPECT_EQ(h.count(Opcode::WDATA, 1), 1u) << "upgrade granted";
    EXPECT_EQ(h.count(Opcode::INV, 1), 2u)
        << "the parked read recalls the new owner";
}

TEST(ChipHomeFsm, LocalRequestsWaitOutAPointerEviction)
{
    // Dir1NB at the chip level: node 2's read evicts node 1's pointer
    // (hChipET). Requests from nodes 3 and 0 wait until node 1 acks.
    ChipHarness h(protocols::dirNB(1));
    h.from(1, Opcode::RREQ);
    h.from(4, Opcode::RDATA);
    h.from(2, Opcode::RREQ);
    ASSERT_EQ(h.chip.lineState(h.line), ChipState::hChipET);
    EXPECT_EQ(h.count(Opcode::INV, 1), 1u) << "victim invalidated";

    h.from(3, Opcode::RREQ);
    h.from(0, Opcode::WREQ);
    EXPECT_EQ(h.count(Opcode::RDATA, 3) + h.count(Opcode::WDATA, 0), 0u)
        << "both parked";

    h.from(1, Opcode::ACKC);
    EXPECT_EQ(h.count(Opcode::RDATA, 2), 1u) << "pointer recycled";
    EXPECT_EQ(h.count(Opcode::INV, 2), 1u)
        << "the parked read evicts the next pointer";
}

TEST(ChipHomeFsm, ChainedUpgraderMayReplaceItsKeptCopy)
{
    // Chained: node 1 upgrades and keeps its read copy, then a second
    // thread on node 1 evicts that copy (REPC) before the upgrade
    // completes, once in hFillWrite and once in hFillWriteInv.
    ChipHarness h(protocols::chained());
    h.from(1, Opcode::RREQ);
    h.from(4, Opcode::RDATA);
    h.from(1, Opcode::WREQ);
    ASSERT_EQ(h.chip.lineState(h.line), ChipState::hFillWrite);
    h.from(1, Opcode::REPC);
    EXPECT_EQ(h.count(Opcode::REPC_ACK, 1), 1u) << "granted at once";
    EXPECT_EQ(h.chip.lineState(h.line), ChipState::hFillWrite);
    h.from(4, Opcode::WDATA);
    EXPECT_EQ(h.count(Opcode::WDATA, 1), 1u);

    ChipHarness g(protocols::chained());
    g.from(1, Opcode::RREQ);
    g.from(4, Opcode::RDATA);
    g.from(1, Opcode::WREQ);
    g.from(4, Opcode::INV);
    ASSERT_EQ(g.chip.lineState(g.line), ChipState::hFillWriteInv);
    g.from(1, Opcode::REPC);
    EXPECT_EQ(g.count(Opcode::REPC_ACK, 1), 1u) << "granted at once";
    g.from(1, Opcode::ACKC);
    EXPECT_EQ(g.count(Opcode::ACKC, 4), 1u) << "parent answered";
    EXPECT_EQ(g.chip.lineState(g.line), ChipState::hFillWrite);
}

} // namespace
} // namespace limitless
