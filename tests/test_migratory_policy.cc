/**
 * @file
 * Migratory-line policy tests (Section 6 extension): FIFO software
 * eviction on LimitLESS pointer overflow instead of bit-vector
 * allocation.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cache/mem_op.hh"
#include "harness/experiment.hh"
#include "machine/coherence_monitor.hh"
#include "machine/coherence_policy.hh"
#include "mem/memory_controller.hh"
#include "workload/migratory.hh"

namespace limitless
{
namespace
{

TEST(MigratoryPolicy, OverflowEvictsInsteadOfSpilling)
{
    MachineConfig cfg;
    cfg.numNodes = 8;
    cfg.protocol = protocols::limitlessStall(2, 50);
    cfg.seed = 71;
    Machine m(cfg);
    const Addr a = m.addressMap().addrOnNode(0, 0);
    const Addr line = m.addressMap().lineAddr(a);
    m.policy().markMigratory(line);

    // Five readers overflow the 2-pointer entry three times.
    for (NodeId p = 1; p <= 5; ++p) {
        m.spawnOn(p, [a, p](ThreadApi &t) -> Task<> {
            co_await t.compute(p * 40); // serialize arrivals
            co_await t.read(a);
        });
    }
    ASSERT_TRUE(m.run().completed);
    CoherenceMonitor(m).checkQuiescent();

    MemoryController &home = m.node(0).mem();
    EXPECT_FALSE(home.softwareTable().has(line))
        << "migratory lines must not allocate bit vectors";
    EXPECT_EQ(home.softwareTable().allocations(), 0u);
    const auto *evicts = static_cast<const Counter *>(
        home.stats().find("migratory_evictions"));
    EXPECT_EQ(evicts->value(), 3u);
    // Only the 2 newest readers keep copies.
    EXPECT_EQ(home.directory().numSharers(line), 2u);
}

TEST(MigratoryPolicy, RequestsDuringTheEvictionWait)
{
    // Home controller alone: a second reader overflows the one-pointer
    // entry of a migratory line, and a WREQ and a WUPD that arrive while
    // the victim's ACKC is outstanding are parked behind the eviction
    // (the Evict-Transaction defers; a WUPD needs the line to be
    // update-mode too).
    EventQueue eq;
    AddressMap amap{4, 16};
    MemoryController mc(eq, 0, amap, protocols::limitlessStall(1, 50),
                        MemParams{});
    std::vector<PacketPtr> sent;
    mc.setSend([&sent](PacketPtr p) { sent.push_back(std::move(p)); });
    mc.setTrapStall([](Tick) {});
    mc.setDivert([](PacketPtr) { FAIL() << "unexpected divert"; });
    CoherencePolicy policy;
    const Addr line = amap.addrOnNode(0, 0);
    policy.markMigratory(line);
    mc.setPolicy(&policy);
    auto inject = [&](PacketPtr pkt) {
        mc.enqueue(std::move(pkt));
        eq.run();
    };
    auto sentTo = [&sent](Opcode op, NodeId dest) {
        unsigned n = 0;
        for (const PacketPtr &p : sent)
            n += p->opcode == op && p->dest == dest;
        return n;
    };

    inject(makeProtocolPacket(1, 0, Opcode::RREQ, line));
    inject(makeProtocolPacket(2, 0, Opcode::RREQ, line));
    ASSERT_EQ(mc.lineState(line), MemState::evictTransaction);
    ASSERT_EQ(sentTo(Opcode::INV, 1), 1u) << "oldest pointer evicted";
    inject(makeProtocolPacket(3, 0, Opcode::WREQ, line));
    auto wupd = makeProtocolPacket(3, 0, Opcode::WUPD, line);
    wupd->operands.push_back(0);
    wupd->operands.push_back(static_cast<std::uint64_t>(MemOpKind::store));
    wupd->operands.push_back(9);
    inject(std::move(wupd));
    EXPECT_EQ(mc.lineState(line), MemState::evictTransaction);
    EXPECT_EQ(sentTo(Opcode::WDATA, 3) + sentTo(Opcode::WACK, 3), 0u)
        << "both parked";

    inject(makeProtocolPacket(1, 0, Opcode::ACKC, line));
    EXPECT_EQ(sentTo(Opcode::RDATA, 2), 1u) << "waiting reader served";
    EXPECT_EQ(sentTo(Opcode::INV, 2), 1u)
        << "the replayed write invalidates the new reader";
}

TEST(MigratoryPolicy, MigratoryWorkloadStillVerifies)
{
    MachineConfig cfg;
    cfg.numNodes = 8;
    cfg.protocol = protocols::limitlessStall(2, 50);
    cfg.seed = 71;
    Machine m(cfg);
    MigratoryParams mp;
    mp.rounds = 3;
    mp.objectLines = 3;
    // Mark the whole migrating object.
    for (unsigned k = 0; k < mp.objectLines; ++k)
        m.policy().markMigratory(m.addressMap().addrOnNode(0, k));
    Migratory wl(mp);
    wl.install(m);
    ASSERT_TRUE(m.run().completed);
    wl.verify(m);
    CoherenceMonitor(m).checkQuiescent();
}

TEST(MigratoryPolicy, UnmarkedLinesStillSpillNormally)
{
    MachineConfig cfg;
    cfg.numNodes = 8;
    cfg.protocol = protocols::limitlessStall(2, 50);
    cfg.seed = 71;
    Machine m(cfg);
    const Addr a = m.addressMap().addrOnNode(0, 0);
    for (NodeId p = 1; p <= 5; ++p) {
        m.spawnOn(p, [a, p](ThreadApi &t) -> Task<> {
            co_await t.compute(p * 40);
            co_await t.read(a);
        });
    }
    ASSERT_TRUE(m.run().completed);
    MemoryController &home = m.node(0).mem();
    EXPECT_TRUE(home.softwareTable().has(m.addressMap().lineAddr(a)));
    const auto *evicts = static_cast<const Counter *>(
        home.stats().find("migratory_evictions"));
    EXPECT_EQ(evicts->value(), 0u);
    // All five readers keep copies (hardware pointers + spilled vector).
    CoherenceMonitor(m).checkQuiescent();
}

} // namespace
} // namespace limitless
