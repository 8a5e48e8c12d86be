/**
 * @file
 * Directed tests for the LimitLESS-specific machinery: pointer-overflow
 * handling in both models (stall approximation and full emulation via
 * the trap handler), Trap-On-Write semantics, meta-state interlocking,
 * the local bit, and the Ts accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "kernel/limitless_handler.hh"
#include "machine/address_map.hh"
#include "mem/memory_controller.hh"

namespace limitless
{
namespace
{

/** Controller-in-isolation harness (stall approximation). */
struct StallHarness
{
    EventQueue eq;
    AddressMap amap{8, 16};
    MemoryController mc;
    std::vector<PacketPtr> sent;
    Tick stalled = 0;

    explicit StallHarness(unsigned pointers = 2, Tick ts = 50,
                          bool trap_on_write = true)
        : mc(eq, 0, amap,
             [&] {
                 ProtocolParams p = protocols::limitlessStall(pointers, ts);
                 p.trapOnWrite = trap_on_write;
                 return p;
             }(),
             MemParams{})
    {
        mc.setSend([this](PacketPtr p) { sent.push_back(std::move(p)); });
        mc.setTrapStall([this](Tick t) { stalled += t; });
        mc.setDivert([](PacketPtr) { FAIL() << "unexpected divert"; });
    }

    Addr line() const { return amap.addrOnNode(0, 0); }

    void
    inject(Opcode op, NodeId src, std::vector<std::uint64_t> data = {})
    {
        PacketPtr pkt = opcodeCarriesData(op)
                            ? makeDataPacket(src, 0, op, line(), data)
                            : makeProtocolPacket(src, 0, op, line());
        mc.enqueue(std::move(pkt));
        eq.run();
    }

    unsigned
    count(Opcode op, NodeId dest) const
    {
        unsigned n = 0;
        for (const auto &p : sent)
            n += (p->opcode == op && p->dest == dest);
        return n;
    }
};

TEST(LimitlessStall, OverflowSpillsPointersToSoftwareAndCharges)
{
    StallHarness h(/*pointers=*/2, /*ts=*/50);
    h.inject(Opcode::RREQ, 1);
    h.inject(Opcode::RREQ, 2);
    EXPECT_EQ(h.stalled, 0u);
    h.inject(Opcode::RREQ, 3); // overflow
    // Requester is still served...
    EXPECT_EQ(h.count(Opcode::RDATA, 3), 1u);
    // ...but the trap spilled the old pointers into the bit vector,
    // stalled the home processor for Ts, and armed Trap-On-Write.
    EXPECT_EQ(h.stalled, 50u);
    EXPECT_TRUE(h.mc.softwareTable().contains(h.line(), 1));
    EXPECT_TRUE(h.mc.softwareTable().contains(h.line(), 2));
    EXPECT_EQ(h.mc.limitlessDir()->meta(h.line()),
              MetaState::trapOnWrite);
    // Hardware pointer array was emptied; the new reader is in hardware.
    EXPECT_TRUE(h.mc.limitlessDir()->contains(h.line(), 3));
    EXPECT_FALSE(h.mc.limitlessDir()->contains(h.line(), 1));
}

TEST(LimitlessStall, TrapOnWriteAbsorbsFurtherReadsInHardware)
{
    StallHarness h(2, 50);
    for (NodeId n = 1; n <= 3; ++n)
        h.inject(Opcode::RREQ, n); // one overflow trap
    const Tick after_first = h.stalled;
    h.inject(Opcode::RREQ, 4); // fits in the freed pointer array
    EXPECT_EQ(h.stalled, after_first) << "no extra trap";
    EXPECT_EQ(h.count(Opcode::RDATA, 4), 1u);
}

TEST(LimitlessStall, OverflowRDataIsDelayedByTs)
{
    StallHarness h(2, 50);
    h.inject(Opcode::RREQ, 1);
    h.inject(Opcode::RREQ, 2);
    const Tick before = h.eq.now();
    h.inject(Opcode::RREQ, 3);
    // The RDATA event fires Ts after the trap began.
    EXPECT_GE(h.eq.now(), before + 50);
}

TEST(LimitlessStall, WriteToOverflowedLineGathersFullWorkerSet)
{
    StallHarness h(2, 50);
    for (NodeId n = 1; n <= 5; ++n)
        h.inject(Opcode::RREQ, n);
    h.sent.clear();
    const Tick stall_before = h.stalled;
    h.inject(Opcode::WREQ, 1);
    EXPECT_GT(h.stalled, stall_before) << "write-gather trap charged";
    // Everyone except the writer gets invalidated, wherever their record
    // lived (hardware pointers or software vector).
    for (NodeId n = 2; n <= 5; ++n)
        EXPECT_EQ(h.count(Opcode::INV, n), 1u) << "node " << n;
    EXPECT_EQ(h.count(Opcode::INV, 1), 0u);
    EXPECT_EQ(h.mc.lineState(h.line()), MemState::writeTransaction);
    EXPECT_EQ(h.mc.ackCounter(h.line()), 4u);
    // Software state is freed; the line is back in hardware control.
    EXPECT_FALSE(h.mc.softwareTable().has(h.line()));
    EXPECT_EQ(h.mc.limitlessDir()->meta(h.line()), MetaState::normal);
    for (NodeId n = 2; n <= 5; ++n)
        h.inject(Opcode::ACKC, n);
    EXPECT_EQ(h.count(Opcode::WDATA, 1), 1u);
}

TEST(LimitlessStall, TrapAlwaysAblationTrapsEveryRead)
{
    StallHarness h(2, 50, /*trap_on_write=*/false);
    for (NodeId n = 1; n <= 3; ++n)
        h.inject(Opcode::RREQ, n); // overflow -> Trap-Always
    EXPECT_EQ(h.mc.limitlessDir()->meta(h.line()), MetaState::trapAlways);
    const Tick stall_before = h.stalled;
    h.inject(Opcode::RREQ, 4);
    EXPECT_EQ(h.stalled, stall_before + 50) << "every read traps now";
    EXPECT_EQ(h.count(Opcode::RDATA, 4), 1u);
}

TEST(LimitlessStall, LocalBitKeepsHomeNodeOutOfThePointerArray)
{
    StallHarness h(2, 50);
    h.inject(Opcode::RREQ, 0); // the home node itself
    h.inject(Opcode::RREQ, 1);
    h.inject(Opcode::RREQ, 2);
    // Two remote readers fit the two pointers; the local copy rides the
    // local bit, so no trap has happened yet.
    EXPECT_EQ(h.stalled, 0u);
    h.inject(Opcode::RREQ, 3);
    EXPECT_EQ(h.stalled, 50u);
}

TEST(LimitlessStall, OverflowFractionMatchesTrapCounts)
{
    StallHarness h(2, 50);
    for (NodeId n = 1; n <= 4; ++n)
        h.inject(Opcode::RREQ, n);
    // 4 requests, traps on the 3rd (overflow). The 4th read hits the
    // emptied array.
    EXPECT_NEAR(h.mc.overflowFraction(), 1.0 / 4.0, 1e-9);
}

// ------------------------------------------------------- Full emulation

/** Full machine (so the IPI + handler + processor path is real). */
TEST(LimitlessEmulation, TrapHandlerServicesOverflowEndToEnd)
{
    MachineConfig cfg;
    cfg.numNodes = 16;
    cfg.protocol = protocols::limitlessEmulated(2);
    cfg.seed = 3;

    Machine m(cfg);
    const Addr hot = m.addressMap().addrOnNode(0, 0);
    // One thread per node reads the same line; worker-set 16 overflows
    // the 2-pointer array repeatedly.
    for (NodeId p = 0; p < 16; ++p) {
        m.spawnOn(p, [hot](ThreadApi &t) -> Task<> {
            const std::uint64_t v = co_await t.read(hot);
            EXPECT_EQ(v, 0u);
        });
    }
    const RunResult r = m.run();
    EXPECT_TRUE(r.completed);
    // The handler took read-overflow traps and spilled into the table.
    EXPECT_GT(m.sumCounter("handler", "read_traps"), 0u);
    EXPECT_GT(m.sumCounter("ipi", "diverted"), 0u);
    const SoftwareDirTable &sw = m.node(0).mem().softwareTable();
    EXPECT_TRUE(sw.has(m.addressMap().lineAddr(hot)));
}

TEST(LimitlessEmulation, WriteReturnsLineToHardwareControl)
{
    MachineConfig cfg;
    cfg.numNodes = 8;
    cfg.protocol = protocols::limitlessEmulated(2);
    cfg.seed = 3;

    Machine m(cfg);
    const Addr hot = m.addressMap().addrOnNode(1, 0);
    // Stage 1: everyone reads (overflow). Stage 2: node 0 writes.
    // Simple handshake through a second flag line.
    const Addr flag = m.addressMap().addrOnNode(2, 1);
    for (NodeId p = 0; p < 8; ++p) {
        m.spawnOn(p, [&m, hot, flag, p](ThreadApi &t) -> Task<> {
            co_await t.read(hot);
            co_await t.fetchAdd(flag, 1);
            if (p == 0) {
                // Wait until all 8 have read, then write the hot line.
                for (;;) {
                    if ((co_await t.read(flag)) == 8)
                        break;
                    co_await t.compute(20);
                }
                co_await t.write(hot, 77);
            }
        });
    }
    const RunResult r = m.run();
    EXPECT_TRUE(r.completed);
    MemoryController &home = m.node(1).mem();
    const Addr line = m.addressMap().lineAddr(hot);
    EXPECT_GT(m.sumCounter("handler", "write_traps"), 0u);
    EXPECT_FALSE(home.softwareTable().has(line)) << "vector freed";
    EXPECT_EQ(home.limitlessDir()->meta(line), MetaState::normal);
    EXPECT_EQ(home.lineState(line), MemState::readWrite);
}

// ------------------------------------------------- Trap-window races

/** Controller-in-isolation harness for the full-emulation meta-state
 *  interlock: diverted packets are captured instead of IPI-queued, so
 *  a test can hold the software-ownership window open indefinitely. */
struct EmuHarness
{
    EventQueue eq;
    AddressMap amap{8, 16};
    MemoryController mc;
    std::vector<PacketPtr> sent;
    std::vector<PacketPtr> diverted;

    explicit EmuHarness(unsigned pointers = 2)
        : mc(eq, 0, amap, protocols::limitlessEmulated(pointers),
             MemParams{})
    {
        mc.setSend([this](PacketPtr p) { sent.push_back(std::move(p)); });
        mc.setDivert(
            [this](PacketPtr p) { diverted.push_back(std::move(p)); });
    }

    Addr line() const { return amap.addrOnNode(0, 0); }

    void
    inject(Opcode op, NodeId src, std::vector<std::uint64_t> data = {})
    {
        PacketPtr pkt = opcodeCarriesData(op)
                            ? makeDataPacket(src, 0, op, line(), data)
                            : makeProtocolPacket(src, 0, op, line());
        mc.enqueue(std::move(pkt));
        eq.run();
    }

    unsigned
    count(Opcode op, NodeId dest) const
    {
        unsigned n = 0;
        for (const auto &p : sent)
            n += (p->opcode == op && p->dest == dest);
        return n;
    }
};

TEST(TrapWindowRace, EvictionDuringTrapOnWriteIsDivertedNotApplied)
{
    // A dirty eviction (REPM) that lands while the line's directory is
    // in Trap-On-Write must be diverted to the software handler — the
    // hardware pointer array no longer describes the sharer set, so
    // applying the replacement in hardware would desynchronize it from
    // the software-held vector. The packet must also close the window
    // (Trans-In-Progress) so nothing else slips through mid-handler.
    EmuHarness h;
    h.inject(Opcode::WREQ, 1); // node 1 becomes the dirty owner
    ASSERT_EQ(h.count(Opcode::WDATA, 1), 1u);
    ASSERT_EQ(h.mc.lineState(h.line()), MemState::readWrite);
    h.mc.limitlessDir()->setMeta(h.line(), MetaState::trapOnWrite);

    h.inject(Opcode::REPM, 1, {7, 7});
    ASSERT_EQ(h.diverted.size(), 1u);
    EXPECT_EQ(h.diverted[0]->opcode, Opcode::REPM);
    EXPECT_EQ(h.mc.limitlessDir()->meta(h.line()),
              MetaState::transInProgress);
    EXPECT_EQ(h.mc.lineState(h.line()), MemState::readWrite)
        << "hardware FSM must not process the diverted eviction";
}

TEST(TrapWindowRace, RequestsDuringHandlerOwnershipAreBusyNacked)
{
    // While the kernel handler owns the line (Trans-In-Progress), every
    // hardware-level request must be interlocked with BUSY, never
    // serviced from the (stale) hardware state.
    EmuHarness h;
    h.inject(Opcode::RREQ, 1);
    ASSERT_EQ(h.count(Opcode::RDATA, 1), 1u);
    h.mc.limitlessDir()->setMeta(h.line(), MetaState::transInProgress);

    h.inject(Opcode::RREQ, 2);
    EXPECT_EQ(h.count(Opcode::BUSY, 2), 1u);
    EXPECT_EQ(h.count(Opcode::RDATA, 2), 0u);
    h.inject(Opcode::WREQ, 3);
    EXPECT_EQ(h.count(Opcode::BUSY, 3), 1u);
    EXPECT_EQ(h.count(Opcode::WDATA, 3), 0u);

    // Reopening the window (handler done) services requests again.
    h.mc.limitlessDir()->setMeta(h.line(), MetaState::normal);
    h.inject(Opcode::RREQ, 2);
    EXPECT_EQ(h.count(Opcode::RDATA, 2), 1u);
}

// ------------------------------------------------------- Cross-mode

/**
 * Two LimitLESS homes run one request sequence: one emulates each trap
 * inline (stall approximation), the other diverts it to a
 * LimitlessHandler, whose packet batch is delivered and whose meta
 * state is restored as soon as it returns (the trap dispatcher's job,
 * without its timing). The software extension is written once, so
 * after every trap both homes must hold the same directory.
 */
struct CrossModeHarness
{
    EventQueue eq;
    AddressMap amap{8, 16};
    MemoryController stall;
    MemoryController emu;
    LimitlessHandler handler;
    std::vector<PacketPtr> stallSent;
    std::vector<PacketPtr> emuSent;
    std::vector<PacketPtr> diverted;

    static ProtocolParams
    proto(LimitlessMode mode, bool trap_on_write)
    {
        ProtocolParams p = protocols::limitlessStall(2, 50);
        p.limitlessMode = mode;
        p.trapOnWrite = trap_on_write;
        return p;
    }

    explicit CrossModeHarness(bool trap_on_write)
        : stall(eq, 0, amap,
                proto(LimitlessMode::stallApprox, trap_on_write),
                MemParams{}),
          emu(eq, 0, amap,
              proto(LimitlessMode::fullEmulation, trap_on_write),
              MemParams{}),
          handler(eq, emu)
    {
        stall.setSend(
            [this](PacketPtr p) { stallSent.push_back(std::move(p)); });
        stall.setTrapStall([](Tick) {});
        stall.setDivert([](PacketPtr) { FAIL() << "stall divert"; });
        emu.setSend(
            [this](PacketPtr p) { emuSent.push_back(std::move(p)); });
        emu.setDivert(
            [this](PacketPtr p) { diverted.push_back(std::move(p)); });
    }

    Addr line(std::uint64_t slot) const { return amap.addrOnNode(0, slot); }

    /** Deliver one packet to both homes and run the handler on what
     *  the emulating home diverts. */
    void
    inject(Opcode op, NodeId src, Addr a)
    {
        stall.enqueue(makeProtocolPacket(src, 0, op, a));
        emu.enqueue(makeProtocolPacket(src, 0, op, a));
        eq.run();
        while (!diverted.empty()) {
            PacketPtr pkt = std::move(diverted.front());
            diverted.erase(diverted.begin());
            std::vector<PacketPtr> out;
            MetaState restore = MetaState::normal;
            handler.handlePacket(*pkt, out, restore);
            for (PacketPtr &p : out)
                emuSent.push_back(std::move(p));
            handler.finishLine(pkt->addr(), restore);
            eq.run();
        }
    }

    /** Both homes set a line's meta state (as a profiler marks it). */
    void
    setMeta(Addr a, MetaState m)
    {
        stall.limitlessDir()->setMeta(a, m);
        emu.limitlessDir()->setMeta(a, m);
    }

    static std::vector<NodeId>
    sorted(std::vector<NodeId> v)
    {
        std::sort(v.begin(), v.end());
        return v;
    }

    static std::vector<std::pair<Opcode, NodeId>>
    sends(const std::vector<PacketPtr> &sent)
    {
        std::vector<std::pair<Opcode, NodeId>> out;
        for (const PacketPtr &p : sent)
            out.emplace_back(p->opcode, p->dest);
        return out;
    }

    /** Both homes hold the same pointers, software vector, profile,
     *  meta state and line state, and have sent the same packets. */
    void
    expectSameDirectory(Addr a, const char *step)
    {
        SCOPED_TRACE(step);
        std::vector<NodeId> s, e;
        stall.directory().sharers(a, s);
        emu.directory().sharers(a, e);
        EXPECT_EQ(sorted(s), sorted(e)) << "pointers";
        s.clear();
        e.clear();
        stall.softwareTable().sharers(a, s);
        emu.softwareTable().sharers(a, e);
        EXPECT_EQ(s, e) << "software vector";
        s.clear();
        e.clear();
        stall.profileTable().sharers(a, s);
        emu.profileTable().sharers(a, e);
        EXPECT_EQ(s, e) << "profile";
        EXPECT_EQ(stall.limitlessDir()->meta(a), emu.limitlessDir()->meta(a));
        EXPECT_EQ(stall.lineState(a), emu.lineState(a));
        EXPECT_EQ(stall.ackCounter(a), emu.ackCounter(a));
        EXPECT_EQ(sends(stallSent), sends(emuSent));
    }
};

/** Reads past the pointer limit, a Trap-Always read of a Read-Only
 *  line, then write gathers on a sticky and on a plain line, and a
 *  Trap-Always read of the sticky line once it is held dirty. */
void
runCrossModeSequence(bool trap_on_write)
{
    CrossModeHarness h(trap_on_write);
    const Addr a = h.line(0);
    const Addr b = h.line(1);

    for (NodeId n : {1, 2, 3})
        h.inject(Opcode::RREQ, n, a);
    h.expectSameDirectory(a, "overflow of line a");
    for (NodeId n : {4, 5, 6})
        h.inject(Opcode::RREQ, n, b);
    h.expectSameDirectory(b, "overflow of line b");

    // Line a is Trap-Always: demoted by the overflow itself, or under
    // Trap-On-Write marked by the profiler.
    h.setMeta(a, MetaState::trapAlways);
    h.inject(Opcode::RREQ, 7, a);
    h.expectSameDirectory(a, "Trap-Always read");

    h.inject(Opcode::WREQ, 1, a);
    h.expectSameDirectory(a, "sticky write gather");
    EXPECT_EQ(h.stall.lineState(a), MemState::writeTransaction);
    for (NodeId n : {2, 3, 7})
        h.inject(Opcode::ACKC, n, a);
    h.expectSameDirectory(a, "sticky write granted");
    EXPECT_EQ(h.stall.lineState(a), MemState::readWrite);
    EXPECT_EQ(h.stall.limitlessDir()->meta(a), MetaState::trapAlways);
    // A Trap-Always read of the line now held dirty recalls it through
    // the hardware path, and the owner's data answers in hardware.
    h.inject(Opcode::RREQ, 2, a);
    h.expectSameDirectory(a, "Trap-Always recall");
    h.stall.enqueue(makeDataPacket(1, 0, Opcode::UPDATE, a, {9, 9}));
    h.emu.enqueue(makeDataPacket(1, 0, Opcode::UPDATE, a, {9, 9}));
    h.eq.run();
    h.expectSameDirectory(a, "Trap-Always recall answered");
    EXPECT_EQ(h.stall.lineState(a), MemState::readOnly);

    // Line b gathers as a plain Trap-On-Write line.
    h.setMeta(b, MetaState::trapOnWrite);
    h.inject(Opcode::WREQ, 4, b);
    h.expectSameDirectory(b, "plain write gather");
    for (NodeId n : {5, 6})
        h.inject(Opcode::ACKC, n, b);
    h.expectSameDirectory(b, "plain write granted");
    EXPECT_EQ(h.stall.lineState(b), MemState::readWrite);
    EXPECT_EQ(h.stall.limitlessDir()->meta(b), MetaState::normal);
    EXPECT_FALSE(h.stall.softwareTable().has(b));
}

TEST(LimitlessCrossMode, SameDirectoryUnderTrapOnWrite)
{
    runCrossModeSequence(/*trap_on_write=*/true);
}

TEST(LimitlessCrossMode, SameDirectoryUnderTrapAlways)
{
    runCrossModeSequence(/*trap_on_write=*/false);
}

TEST(LimitlessEmulation, EffectiveTrapCostIsInThePaperRange)
{
    KernelCosts costs;
    // Paper Section 5: "the current estimate of this latency in the
    // Alewife machine is between 50 and 100 cycles".
    const Tick t = costs.typicalReadTrap(4);
    EXPECT_GE(t, 30u);
    EXPECT_LE(t, 100u);
}

} // namespace
} // namespace limitless
