/**
 * @file
 * Whole-machine assembly and run loop: the top-level public API most
 * users touch. Build a MachineConfig, construct a Machine, install a
 * workload (or spawn thread programs directly), run(), read stats.
 */

#ifndef LIMITLESS_MACHINE_MACHINE_HH
#define LIMITLESS_MACHINE_MACHINE_HH

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "machine/coherence_policy.hh"
#include "machine/machine_config.hh"
#include "machine/node.hh"
#include "network/network.hh"
#include "sim/event_queue.hh"

namespace limitless
{

class Telemetry;
struct ParallelKernelStats;

/** Outcome of Machine::run(). */
struct RunResult
{
    Tick cycles = 0;          ///< tick when the last thread finished
    bool completed = false;   ///< all threads ran to completion
    std::uint64_t events = 0; ///< simulator events executed
    double hostSeconds = 0.0; ///< wall-clock time spent inside run()

    /** Host throughput: simulator events per wall-clock second. */
    double
    eventsPerSecond() const
    {
        return hostSeconds > 0.0
                   ? static_cast<double>(events) / hostSeconds
                   : 0.0;
    }
};

/** The process's peak resident set so far, in KiB (getrusage's
 *  ru_maxrss on Linux). Host-dependent: reported under stats JSON's
 *  "host" object only. */
std::uint64_t hostPeakRssKb();

/** This host's name ("unknown" when gethostname fails), for the "host"
 *  objects of stats and bench exports. */
std::string hostName();

/** A complete simulated multiprocessor. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &cfg);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    const MachineConfig &config() const { return _cfg; }
    EventQueue &eventQueue() { return _eq; }

    /** Spatial partition count the machine was built with (1 = serial
     *  kernel). cfg.simThreads clamped to the partitionable units. */
    unsigned numPartitions() const { return _numParts; }
    const AddressMap &addressMap() const { return _amap; }
    const Topology &topology() const { return *_topo; }
    unsigned numNodes() const { return _cfg.numNodes; }
    Node &node(unsigned i) { return *_nodes.at(i); }
    const Node &node(unsigned i) const { return *_nodes.at(i); }
    Network &network() { return *_net; }

    /** Static coherence-type table (mark update-mode lines before the
     *  run starts; paper Section 6). */
    CoherencePolicy &policy() { return _policy; }
    const CoherencePolicy &policy() const { return _policy; }

    /** Bind a thread program to a hardware context on a node. */
    void spawnOn(NodeId node, Processor::ThreadFn fn);

    /** True once every spawned thread has completed (telemetry uses
     *  this as its stop predicate). */
    bool allThreadsDone() const;

    /**
     * Run until every spawned thread completes (then drain in-flight
     * protocol traffic), or until @p max_cycles (0 = no limit).
     */
    RunResult run(Tick max_cycles = 0);

    /** Sum a counter across all nodes, e.g. sumCounter("cache","misses"). */
    std::uint64_t sumCounter(std::string_view component,
                             std::string_view name) const;

    /** Machine-wide mean of an accumulator (weighted by sample count). */
    double meanAccumulator(std::string_view component,
                           std::string_view name) const;

    /** Aggregate LimitLESS overflow fraction (the model's m). */
    double overflowFraction() const;

    /** Dump every node's stats plus the network's. */
    void dumpStats(std::ostream &os) const;

    /**
     * Emit the whole machine's stats as one JSON document
     * ("limitless-stats-v3"): run metadata, the remote-miss phase
     * breakdown from the flight recorder's latency tracker, per-component
     * aggregates (counters summed, accumulators variance-merged across
     * nodes), network stats, and per-node detail. Pass the RunResult to
     * also emit a "host" block (wall seconds, events, events/sec).
     */
    void dumpStatsJson(std::ostream &os, Tick cycles = 0,
                       const RunResult *run = nullptr) const;

    /** Interval-sampled metrics; non-null iff cfg.metricsInterval > 0.
     *  Sampling starts/stops inside run(). */
    Telemetry *telemetry() { return _telemetry.get(); }

    /** Host-side utilization accounting of the parallel kernel, filled
     *  by run(); non-null iff numPartitions() > 1. */
    const ParallelKernelStats *pkStats() const { return _pkStats.get(); }

    /**
     * Write the telemetry CSV to @p csvPath and its JSON sidecar next to
     * it (telemetryJsonPathFor). @return the sidecar path. fatal()s when
     * telemetry is disabled or a file cannot be opened.
     */
    std::string writeTelemetry(const std::string &csvPath) const;

    /**
     * Write the transaction-trace JSON ("limitless-txn-v1": per-phase
     * quantiles plus the top-K slowest transactions with full span trees
     * and critical paths) to cfg.txnTraceOut. @return that path.
     * fatal()s when the tracer was not enabled for this machine.
     */
    std::string writeTxnTrace() const;

  private:
    void setupTelemetry();
    /** run()'s queue advance for numParts > 1: the window-parallel kernel,
     *  calling @p on_window after every window until it returns false
     *  or the machine drains. Simulated behavior is bit-identical to the
     *  serial burst loop; see sim/parallel_kernel.hh. */
    void runWindows(std::function<bool(Tick)> on_window);
    MachineConfig _cfg;
    EventQueue _eq;
    std::shared_ptr<const Topology> _topo;
    AddressMap _amap;
    CoherencePolicy _policy;
    std::unique_ptr<Network> _net;
    /** Parallel-kernel partitioning (numParts == 1 leaves these empty
     *  except _partQueues[0] == &_eq). Queues must outlive the nodes
     *  scheduling on them, so they are declared first. */
    unsigned _numParts = 1;
    std::vector<unsigned> _partOf;                      ///< node -> partition
    std::vector<std::unique_ptr<EventQueue>> _workerQueues;
    std::vector<EventQueue *> _partQueues;              ///< [0] == &_eq
    std::unique_ptr<ParallelKernelStats> _pkStats;      ///< numParts > 1
    std::vector<std::unique_ptr<Node>> _nodes;
    std::unique_ptr<Telemetry> _telemetry;
    /** The shared producer-side histogram sinks registered by
     *  setupTelemetry (null when telemetry is off); runWindows swaps in
     *  per-partition shadows and merges them back here. */
    class Log2Histogram *_wsSink = nullptr;
    class Log2Histogram *_svcSink = nullptr;
    unsigned _spawned = 0;
};

} // namespace limitless

#endif // LIMITLESS_MACHINE_MACHINE_HH
