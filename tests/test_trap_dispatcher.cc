/**
 * @file
 * Trap-dispatcher unit tests: in-order queue drain, protocol/message
 * routing, multi-service fan-out, processor occupancy charging, and the
 * unhandled-packet accounting.
 */

#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <vector>

#include "check/explorer.hh"
#include "harness/experiment.hh"
#include "machine/machine.hh"
#include "mem/memory_controller.hh"

namespace limitless
{
namespace
{

MachineConfig
emulated(unsigned nodes = 4)
{
    MachineConfig cfg;
    cfg.numNodes = nodes;
    cfg.protocol = protocols::limitlessEmulated(2);
    cfg.seed = 53;
    return cfg;
}

TEST(TrapDispatcher, DeliversMessagesInArrivalOrder)
{
    Machine m(emulated());
    std::vector<std::uint64_t> seen;
    m.node(2).dispatcher().registerMessage(
        Opcode::IPI_MESSAGE,
        [&seen](const Packet &pkt) {
            seen.push_back(pkt.operands.at(0));
        });
    m.spawnOn(1, [&m](ThreadApi &t) -> Task<> {
        for (std::uint64_t k = 1; k <= 5; ++k)
            m.node(1).ipi().send(makeInterruptPacket(
                1, 2, Opcode::IPI_MESSAGE, {k}));
        co_await t.compute(1);
    });
    m.spawnOn(2, [](ThreadApi &t) -> Task<> { co_await t.compute(200); });
    ASSERT_TRUE(m.run().completed);
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

TEST(TrapDispatcher, MultipleServicesShareAnOpcode)
{
    Machine m(emulated());
    unsigned a_hits = 0, b_hits = 0;
    m.node(0).dispatcher().registerMessage(
        Opcode::IPI_MESSAGE, [&](const Packet &pkt) {
            if (pkt.operands.at(0) == 100)
                ++a_hits;
        });
    m.node(0).dispatcher().registerMessage(
        Opcode::IPI_MESSAGE, [&](const Packet &pkt) {
            if (pkt.operands.at(0) == 200)
                ++b_hits;
        });
    m.spawnOn(1, [&m](ThreadApi &t) -> Task<> {
        m.node(1).ipi().send(
            makeInterruptPacket(1, 0, Opcode::IPI_MESSAGE, {100}));
        m.node(1).ipi().send(
            makeInterruptPacket(1, 0, Opcode::IPI_MESSAGE, {200}));
        co_await t.compute(1);
    });
    m.spawnOn(0, [](ThreadApi &t) -> Task<> { co_await t.compute(150); });
    ASSERT_TRUE(m.run().completed);
    EXPECT_EQ(a_hits, 1u);
    EXPECT_EQ(b_hits, 1u);
}

TEST(TrapDispatcher, ChargesOccupancyToTheProcessor)
{
    Machine m(emulated());
    m.node(0).dispatcher().registerMessage(Opcode::IPI_MESSAGE,
                                           [](const Packet &) {});
    m.spawnOn(1, [&m](ThreadApi &t) -> Task<> {
        for (int k = 0; k < 10; ++k)
            m.node(1).ipi().send(
                makeInterruptPacket(1, 0, Opcode::IPI_MESSAGE, {1}));
        co_await t.compute(1);
    });
    m.spawnOn(0, [](ThreadApi &t) -> Task<> { co_await t.compute(400); });
    ASSERT_TRUE(m.run().completed);
    EXPECT_GE(m.node(0).processor().stallCycles(), 10u)
        << "each trap preempts the application";
    const auto *msgs = static_cast<const Counter *>(
        m.node(0).statSet("trap")->find("messages"));
    EXPECT_EQ(msgs->value(), 10u);
}

TEST(TrapDispatcher, CountsUnhandledInterrupts)
{
    Machine m(emulated());
    m.spawnOn(1, [&m](ThreadApi &t) -> Task<> {
        m.node(1).ipi().send(
            makeInterruptPacket(1, 0, Opcode::IPI_MESSAGE, {9}));
        co_await t.compute(1);
    });
    m.spawnOn(0, [](ThreadApi &t) -> Task<> { co_await t.compute(100); });
    ASSERT_TRUE(m.run().completed);
    const auto *unhandled = static_cast<const Counter *>(
        m.node(0).statSet("trap")->find("unhandled"));
    EXPECT_EQ(unhandled->value(), 1u);
}

TEST(TrapDispatcher, ProtocolTrapsAndMessagesInterleaveSafely)
{
    // Overflow traps (protocol packets) and active messages share the
    // queue; both must be serviced without interference.
    Machine m(emulated(8));
    const Addr hot = m.addressMap().addrOnNode(0, 0);
    unsigned messages = 0;
    m.node(0).dispatcher().registerMessage(
        Opcode::IPI_MESSAGE, [&](const Packet &) { ++messages; });
    for (NodeId p = 1; p < 8; ++p) {
        m.spawnOn(p, [&m, hot, p](ThreadApi &t) -> Task<> {
            co_await t.read(hot); // overflows the 2-pointer entry
            m.node(p).ipi().send(
                makeInterruptPacket(p, 0, Opcode::IPI_MESSAGE, {p}));
            co_await t.compute(5);
        });
    }
    m.spawnOn(0, [](ThreadApi &t) -> Task<> { co_await t.compute(600); });
    ASSERT_TRUE(m.run().completed);
    EXPECT_EQ(messages, 7u);
    EXPECT_GT(m.sumCounter("handler", "read_traps"), 0u);
    const auto *proto_traps = static_cast<const Counter *>(
        m.node(0).statSet("trap")->find("protocol_traps"));
    EXPECT_GT(proto_traps->value(), 0u);
}

TEST(TrapWindowRace, RequestDuringWriteGatherIsNotGrantedData)
{
    // End-to-end version of the trap-window interlock. The
    // Trans-In-Progress meta-state itself is sub-step: the handler is
    // IPI-dispatched and completes within one event drain, restoring
    // Normal mode and handing the line back to hardware as a
    // Write-Transaction awaiting ACKCs (handler handleWrite, paper
    // §4.4). So the window that is *observable between steps* — and that
    // a real concurrent requester can race into — is that hardware
    // gather: invalidations in flight, acknowledgment counter armed.
    //
    // Search the limitless full-emulation state space for a reachable
    // state where the home line sits in that post-trap gather while
    // another node's RREQ/WREQ is already in flight toward the home,
    // deliver the request into the window, and require that it is
    // interlocked (deferred or BUSY-nacked), never answered with data
    // from the still-unacknowledged line.
    //
    // The rmw script (every node loads, then stores, line 0) makes the
    // window easy to reach with one hardware pointer: the loads overflow
    // into Trap-On-Write, the first store trips the write-gather trap,
    // and the remaining nodes' requests race into it.
    CheckConfig cfg;
    cfg.protocol = protocols::limitlessEmulated(1);
    cfg.nodes = 3;
    cfg.script = "rmw";

    std::deque<Schedule> frontier{Schedule{}};
    std::set<std::string> seen;
    unsigned windows = 0, expanded = 0;
    while (!frontier.empty() && windows == 0 && expanded < 20000) {
        const Schedule sched = frontier.front();
        frontier.pop_front();
        ++expanded;
        auto w = replaySchedule(cfg, sched);
        if (!seen.insert(w->fingerprint()).second)
            continue;

        Machine &m = w->machine();
        const Addr line = cfg.lineSet(m.addressMap())[0];
        const NodeId home = m.addressMap().homeOf(line);
        const bool in_window =
            m.node(home).mem().lineState(line) ==
                MemState::writeTransaction &&
            m.sumCounter("handler", "write_traps") > 0;

        for (const Choice &c : w->enabled()) {
            const bool racing_request =
                c.kind == Choice::Kind::deliver && c.node == home &&
                c.line == line &&
                (c.opcode == Opcode::RREQ || c.opcode == Opcode::WREQ);
            if (in_window && racing_request) {
                const NodeId requester = c.src;
                ASSERT_TRUE(w->apply(c));
                EXPECT_FALSE(w->checkStep().any());
                // Still gathering: the race must not have produced a
                // grant. Any data packet home->requester now in flight
                // would be an answer to the delivered request (the
                // requester was idle, its earlier replies consumed).
                EXPECT_EQ(m.node(home).mem().lineState(line),
                          MemState::writeTransaction);
                w->network().forEachChannel(
                    [&](NodeId src, NodeId dest, const Packet &head,
                        std::size_t) {
                        if (src == home && dest == requester) {
                            EXPECT_TRUE(head.opcode != Opcode::RDATA &&
                                        head.opcode != Opcode::WDATA)
                                << describePacket(head)
                                << " granted inside the gather window";
                        }
                    });
                ++windows;
                break;
            }
            Schedule next = sched;
            next.push_back(c);
            frontier.push_back(std::move(next));
        }
    }
    EXPECT_GT(windows, 0u)
        << "no reachable write-gather window with a racing request in "
        << expanded << " expansions — script or search broken";
}

} // namespace
} // namespace limitless
