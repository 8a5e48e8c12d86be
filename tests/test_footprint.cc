/**
 * @file
 * Host-heap footprint of a machine at construction. Per-node structures
 * allocate for what a run fills, not for the configured capacity
 * (docs/PERFORMANCE.md §8), so a freshly built machine holds little per
 * node; a structure sized by capacity (a dense per-set cache index, a
 * deque that allocates when constructed, a flit ring pre-sized at every
 * port) multiplies by the node count and breaks the budget. Heap bytes
 * are counted by the replacement operator new in heap_probe.hh.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "heap_probe.hh"
#include "machine/machine.hh"

namespace limitless
{
namespace
{

MachineConfig
torus(unsigned nodes)
{
    MachineConfig cfg;
    cfg.numNodes = nodes;
    cfg.topology.kind = TopologyKind::torus;
    cfg.protocol = protocols::limitlessStall(4, 50);
    return cfg;
}

/** Live heap bytes a machine of @p cfg holds once constructed. */
std::int64_t
constructedBytes(const MachineConfig &cfg)
{
    const std::int64_t before = heap_probe::liveBytes.load();
    Machine m(cfg);
    return heap_probe::liveBytes.load() - before;
}

TEST(Footprint, TorusMachineStaysUnderItsPerNodeBudget)
{
    // Warm up the process-wide state a first machine sets up (flight
    // recorder, packet pool) so the measurement is the machine's own.
    constructedBytes(torus(16));
    const std::int64_t bytes = constructedBytes(torus(256));
    // About 7.3 KB per node with glibc's malloc, the machine-wide event
    // wheel included; the budget is 1.5x that. A dense 4,096-set cache
    // index alone adds 8 KB per node, and the capacity-sized state this
    // replaced (that index, deques built at construction, 16-flit rings
    // at every port, heap-held stat names) read 24 KB.
    constexpr double budgetPerNode = 11000;
    EXPECT_LT(static_cast<double>(bytes) / 256, budgetPerNode)
        << bytes << " bytes for 256 nodes";
}

} // namespace
} // namespace limitless
