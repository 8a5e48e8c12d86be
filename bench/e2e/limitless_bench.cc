/**
 * @file
 * limitless-bench: one repetition of one named end-to-end workload per
 * process. bench/e2e/run.py is the only intended caller; it owns the
 * rep schedule, the statistics and the pinned-output checks.
 *
 * Each layer is timed from outside, around its public call: Machine
 * construction, Workload::install, Machine::run, Workload::verify,
 * CoherenceMonitor::checkQuiescent and ~Machine. Counts are read through
 * Machine::sumCounter, Machine::network().statSet(), Machine::pkStats()
 * and the latency tracker's snapshot(). With --trace the PROF_SCOPE host
 * profiler is on for the whole rep and its scope tree is printed too.
 *
 * Output: one JSON object on stdout. "pinned" holds simulated results,
 * which are identical for any --sim-threads value; "host" holds counts
 * that depend on the execution kernel or the host, and the process's
 * peak RSS.
 *
 *   limitless-bench --workload torus1024 --seed 1 [--trace]
 *                   [--folded profile.folded]
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/cli.hh"
#include "machine/coherence_monitor.hh"
#include "obs/flight_recorder.hh"
#include "obs/host_profiler.hh"
#include "sim/log.hh"
#include "sim/parallel_kernel.hh"
#include "stats/stats.hh"

using namespace limitless;

namespace
{

/** One benchmark workload; each row equals a limitless-sim command line
 *  (bench/e2e/README.md lists them). */
struct Spec
{
    const char *name;
    const char *workload;
    const char *protocol;
    bool emulate;
    unsigned nodes;
    unsigned iterations;
    NetworkKind network;
    TopologyKind topology;
    unsigned cluster;
    bool hier;
    unsigned simThreads;
};

// Each rep is kept short (well under a second of Machine::run) so that a
// fixed-length measurement holds many reps: host slowdowns come in bursts
// of a few seconds, and the fastest of many short reps misses them.
constexpr Spec specs[] = {
    {"weather64-emu", "weather", "limitless1", true, 64, 50,
     NetworkKind::mesh, TopologyKind::mesh, 1, false, 1},
    {"stress64-ideal", "random-stress", "limitless2", true, 64, 2000,
     NetworkKind::ideal, TopologyKind::mesh, 1, false, 1},
    {"torus1024", "weather", "limitless4", false, 1024, 1,
     NetworkKind::mesh, TopologyKind::torus, 1, false, 1},
    {"torus1024-t4", "weather", "limitless4", false, 1024, 1,
     NetworkKind::mesh, TopologyKind::torus, 1, false, 4},
    {"hier1024", "weather", "limitless4", false, 1024, 1,
     NetworkKind::mesh, TopologyKind::torus, 64, true, 1},
};

MachineConfig
configFor(const Spec &s, std::uint64_t seed)
{
    MachineConfig cfg;
    cfg.numNodes = s.nodes;
    cfg.seed = seed;
    cfg.protocol = parseProtocol(s.protocol);
    if (s.emulate)
        cfg.protocol.limitlessMode = LimitlessMode::fullEmulation;
    cfg.network = s.network;
    cfg.topology.kind = s.topology;
    cfg.topology.clusterSize = s.cluster;
    cfg.hier = s.hier;
    cfg.simThreads = s.simThreads;
    return cfg;
}

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t
counterOf(const StatSet *set, const char *name)
{
    const Stat *s = set ? set->find(name) : nullptr;
    return s ? static_cast<const Counter *>(s)->value() : 0;
}

/** Insertion-ordered "key": number pairs, printed as one JSON object. */
class Fields
{
  public:
    void
    put(const std::string &key, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        _rows.emplace_back(key, buf);
    }

    void
    put(const std::string &key, std::uint64_t v)
    {
        _rows.emplace_back(key, std::to_string(v));
    }

    void
    print(std::ostream &os) const
    {
        os << "{";
        for (std::size_t i = 0; i < _rows.size(); ++i)
            os << (i ? ", \"" : "\"") << _rows[i].first
               << "\": " << _rows[i].second;
        os << "}";
    }

  private:
    std::vector<std::pair<std::string, std::string>> _rows;
};

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions opts = CliOptions::parse(
        argc, argv,
        {{"workload", true}, {"seed", true}, {"trace", false},
         {"folded", true}});
    const Spec *spec = nullptr;
    for (const Spec &s : specs)
        if (opts.str("workload") == s.name)
            spec = &s;
    if (!spec)
        fatal("limitless-bench: unknown --workload '%s'",
              opts.str("workload").c_str());
    const std::uint64_t seed = opts.num("seed", 1);
    const bool traced = opts.has("trace");

    if (traced)
        HostProfiler::enable();
    FlightRecorder::instance().latency().reset();

    Fields time, pinned, host;

    Clock::time_point t0 = Clock::now();
    auto machine = std::make_unique<Machine>(configFor(*spec, seed));
    time.put("machine.construct_s", secondsSince(t0));

    t0 = Clock::now();
    std::unique_ptr<Workload> workload =
        makeWorkloadFactory(spec->workload, spec->iterations, seed)();
    workload->install(*machine);
    time.put("workload.install_s", secondsSince(t0));

    t0 = Clock::now();
    const RunResult run = machine->run();
    time.put("run_s", secondsSince(t0));
    if (!run.completed)
        fatal("limitless-bench: %s did not complete", spec->name);

    t0 = Clock::now();
    workload->verify(*machine);
    time.put("workload.verify_s", secondsSince(t0));

    t0 = Clock::now();
    CoherenceMonitor(*machine).checkQuiescent();
    time.put("check.quiescent_s", secondsSince(t0));

    const PhaseBreakdown ph = FlightRecorder::instance().latency().snapshot();
    pinned.put("model.cycles", std::uint64_t{run.cycles});
    pinned.put("model.remote_misses", ph.completed);
    pinned.put("model.remote_miss_cycles", ph.total);
    pinned.put("model.phase.req_net", ph.reqNet);
    pinned.put("model.phase.home", ph.home);
    pinned.put("model.phase.trap", ph.trap);
    pinned.put("model.phase.inv", ph.inv);
    pinned.put("model.phase.reply_net", ph.replyNet);
    const StatSet *net = machine->network().statSet();
    for (const char *c : {"packets", "flits", "flit_hops", "blocked"})
        pinned.put(std::string("net.") + c, counterOf(net, c));
    const std::pair<const char *, const char *> counters[] = {
        {"proc", "ops"},          {"proc", "remote_misses"},
        {"proc", "stall_cycles"}, {"cache", "loads"},
        {"cache", "stores"},      {"cache", "hits"},
        {"cache", "misses"},      {"mem", "requests"},
        {"mem", "busy_nacks"},    {"mem", "invs_sent"},
        {"mem", "evictions"},     {"mem", "read_traps"},
        {"mem", "write_traps"},   {"handler", "traps"},
        {"handler", "cycles"},    {"ipi", "diverted"},
        {"chip", "rreq"},         {"chip", "wreq"},
        {"chip", "local_grants"}, {"chip", "parent_reqs"},
        {"chip", "read_traps"},
    };
    for (const auto &[comp, name] : counters)
        pinned.put(std::string(comp) + "." + name,
                   machine->sumCounter(comp, name));

    host.put("sim.events", run.events);
    host.put("partitions", std::uint64_t{machine->numPartitions()});
    if (const ParallelKernelStats *pk = machine->pkStats()) {
        host.put("pk.windows", pk->windows);
        host.put("pk.coupled_windows", pk->coupledWindows);
        double wait = 0.0;
        std::uint64_t maxEvents = 0, sumEvents = 0;
        for (unsigned p = 0; p < pk->partitions; ++p) {
            wait += pk->barrierWaitSeconds(p);
            maxEvents = std::max(maxEvents, pk->parts[p].events);
            sumEvents += pk->parts[p].events;
        }
        host.put("pk.barrier_wait_s", wait);
        host.put("pk.max_part_events", maxEvents);
        host.put("pk.sum_part_events", sumEvents);
    }

    std::vector<HostProfiler::Scope> scopes;
    if (traced) {
        scopes = HostProfiler::snapshot();
        if (opts.has("folded")) {
            std::ofstream out(opts.str("folded"));
            if (!out)
                fatal("limitless-bench: cannot write '%s'",
                      opts.str("folded").c_str());
            HostProfiler::writeFolded(out);
        }
    }

    // Coroutine frames on the machine may reference the workload, so the
    // machine goes first.
    t0 = Clock::now();
    machine.reset();
    time.put("machine.teardown_s", secondsSince(t0));
    workload.reset();
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    host.put("peak_rss_kb", static_cast<std::uint64_t>(ru.ru_maxrss));

    std::cout << "{\"workload\": \"" << spec->name << "\", \"seed\": " << seed
              << ", \"traced\": " << (traced ? "true" : "false")
              << ",\n \"time\": ";
    time.print(std::cout);
    std::cout << ",\n \"pinned\": ";
    pinned.print(std::cout);
    std::cout << ",\n \"host\": ";
    host.print(std::cout);
    std::cout << ",\n \"scopes\": [";
    for (std::size_t i = 0; i < scopes.size(); ++i)
        std::cout << (i ? ",\n  " : "\n  ") << "{\"path\": \""
                  << scopes[i].path << "\", \"count\": " << scopes[i].count
                  << ", \"wall_ns\": " << scopes[i].wallNs
                  << ", \"self_ns\": " << scopes[i].selfNs << "}";
    std::cout << "]}\n";
    return 0;
}
