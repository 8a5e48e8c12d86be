/**
 * @file
 * limitless-sim: the command-line front end (the role ASIM's driver
 * plays in paper Figure 6). Runs one (workload, protocol, machine)
 * configuration and reports execution time and the headline statistics;
 * can capture the run as a post-mortem trace or replay a previously
 * captured trace.
 *
 * Examples:
 *   limitless-sim --workload weather --protocol dir4nb --nodes 64
 *   limitless-sim --workload weather --protocol limitless4 --ts 100
 *   limitless-sim --workload multigrid --protocol full-map \
 *                 --capture-trace mg.trace
 *   limitless-sim --replay-trace mg.trace --protocol limitless4
 *   limitless-sim --workload random-stress --protocol chained \
 *                 --memory-model weak --dump-stats
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <unordered_set>

#include "check/trace_io.hh"
#include "harness/cli.hh"
#include "machine/coherence_monitor.hh"
#include "mem/home/hier_home.hh"
#include "obs/flight_recorder.hh"
#include "obs/host_profiler.hh"
#include "proto/protocol_table.hh"
#include "sim/log.hh"
#include "trace/trace_capture.hh"
#include "trace/trace_replay.hh"

using namespace limitless;

namespace
{

void
usage()
{
    std::cout <<
        "limitless-sim — LimitLESS directory coherence simulator\n\n"
        "  --workload <name>      one of: ";
    for (const auto &name : workloadNames())
        std::cout << name << " ";
    std::cout <<
        "\n"
        "  --protocol <name>      full-map | dir<i>nb | limitless<i> | "
        "chained | private-only\n"
        "  --nodes <n>            machine size (default 64)\n"
        "  --iterations <n>       workload main-loop length (default: "
        "workload's own)\n"
        "  --ts <cycles>          LimitLESS software latency (default "
        "50)\n"
        "  --emulate              run the full LimitLESS trap handler "
        "instead of the\n"
        "                         paper's stall approximation\n"
        "  --no-trap-on-write     disable the Trap-On-Write "
        "optimization (D1)\n"
        "  --no-local-bit         disable the Local Bit (D3)\n"
        "  --network <mesh|ideal> fabric model (default mesh)\n"
        "  --sim-threads <n>      host threads for the conservative\n"
        "                         window-parallel kernel (default 1);\n"
        "                         results are bit-identical for any n\n"
        "  --topology <name>      mesh | torus | express[:stride] "
        "(default mesh)\n"
        "  --cluster <n>          nodes per chip: cluster-interleaved "
        "home mapping\n"
        "  --hier                 two-level directories: per-chip homes "
        "under the\n"
        "                         inter-chip directory (requires "
        "--cluster >= 2)\n"
        "  --memory-model <sc|weak>\n"
        "  --seed <n>             RNG seed (default 1)\n"
        "  --capture-trace <file> record the run as a post-mortem trace\n"
        "  --replay-trace <file>  replay a captured trace (ignores "
        "--workload)\n"
        "  --replay-check <file>  step through a limitless-check "
        "counterexample trace\n"
        "                         (exits 0 when the recorded violation "
        "reproduces)\n"
        "  --dump-stats           print every per-node statistic\n"
        "  --trace-out <file>     stream protocol events as Chrome "
        "trace_event JSON\n"
        "                         (open at ui.perfetto.dev)\n"
        "  --trace-lines <a,b,..> restrict the streamed trace to these "
        "line addresses\n"
        "  --stats-json <file>    write the machine's stats as JSON\n"
        "  --txn-trace-out <file> per-transaction causal traces: span "
        "trees, critical\n"
        "                         paths, per-phase p50/p95/p99 "
        "(limitless-txn-v1 JSON)\n"
        "  --txn-top <k>          slowest transactions kept in full "
        "(default 16)\n"
        "  --metrics-interval <n> sample telemetry every n cycles "
        "(0 = off)\n"
        "  --metrics-out <file>   telemetry CSV path (default "
        "telemetry.csv;\n"
        "                         a .json sidecar is written alongside)\n"
        "  --prof-out <file>      profile the simulator itself: "
        "collapsed-stack\n"
        "                         flamegraph lines (scope self-ns), plus "
        "a\n"
        "                         host_profile stats-JSON block and "
        "cat:host\n"
        "                         slices in --trace-out\n"
        "  --dump-protocol-table  print every scheme's transition tables "
        "and exit\n"
        "  --dump-hier-table      print the chip-side (two-level) "
        "transition tables\n"
        "                         and exit\n"
        "  --log <tag>            enable debug logging (mem, cache, net, "
        "handler, all)\n"
        "  --help\n";
}

/**
 * Chrome-slice sink for PROF scopes: "cat":"host" complete events on
 * pid 1 with microsecond timestamps since profiler enable, merged into
 * the same --trace-out stream as the simulated-machine events. Only
 * reachable in serial runs (--trace-out is rejected with
 * --sim-threads > 1), so no locking; capped so a long run cannot
 * balloon the trace file.
 */
void
hostSliceSink(const char *name, std::uint64_t startNs, std::uint64_t durNs)
{
    static std::uint64_t emitted = 0;
    if (emitted >= 200'000)
        return;
    JsonWriter *w = FlightRecorder::instance().traceRawEvent(0);
    if (!w)
        return;
    ++emitted;
    // Fixed-point microseconds, exact to the nanosecond.
    auto micros = [](std::uint64_t ns) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%llu.%03llu",
                      static_cast<unsigned long long>(ns / 1000),
                      static_cast<unsigned long long>(ns % 1000));
        return std::string(buf);
    };
    w->object().field("name", name).field("cat", "host").field("ph", "X");
    w->field("pid", 1).field("tid", 0).key("ts").raw(micros(startNs));
    w->key("dur").raw(micros(durNs)).end();
}

} // namespace

int
main(int argc, char **argv)
{
    const std::map<std::string, bool> known = {
        {"workload", true},      {"protocol", true},
        {"nodes", true},         {"iterations", true},
        {"ts", true},            {"emulate", false},
        {"no-trap-on-write", false}, {"no-local-bit", false},
        {"network", true},       {"memory-model", true},
        {"seed", true},          {"capture-trace", true},
        {"replay-trace", true},  {"replay-check", true},
        {"dump-stats", false},
        {"log", true},           {"help", false},
        {"trace-out", true},     {"trace-lines", true},
        {"stats-json", true},    {"dump-protocol-table", false},
        {"metrics-interval", true}, {"metrics-out", true},
        {"txn-trace-out", true}, {"txn-top", true},
        {"topology", true},      {"cluster", true},
        {"hier", false},         {"dump-hier-table", false},
        {"sim-threads", true},   {"prof-out", true},
    };
    const CliOptions opts = CliOptions::parse(argc, argv, known);
    if (opts.has("help") || argc == 1) {
        usage();
        return 0;
    }
    if (opts.has("dump-protocol-table")) {
        registerAllProtocolTables();
        ProtocolTableRegistry::instance().dump(std::cout);
        return 0;
    }
    if (opts.has("dump-hier-table")) {
        // Chip-side tables only: the flat dump's golden file stays
        // untouched by the two-level mode.
        registerAllHierTables();
        ProtocolTableRegistry::instance().dump(std::cout);
        return 0;
    }
    if (opts.has("log"))
        Log::enable(opts.str("log"));
    if (opts.has("replay-check")) {
        CheckTrace trace;
        std::string error;
        if (!loadTrace(opts.str("replay-check"), trace, &error))
            fatal("--replay-check: %s", error.c_str());
        const bool reproduced = replayTrace(trace, &std::cout);
        std::cout << (reproduced ? "REPRODUCED" : "NOT REPRODUCED")
                  << ": " << violationKindName(trace.violation) << " in "
                  << trace.config.name() << "\n";
        return reproduced ? 0 : 1;
    }

    if (opts.has("prof-out"))
        HostProfiler::enable();

    MachineConfig cfg;
    cfg.numNodes = static_cast<unsigned>(opts.num("nodes", 64));
    cfg.seed = opts.num("seed", 1);
    cfg.protocol = parseProtocol(opts.str("protocol", "limitless4"));
    if (opts.has("ts"))
        cfg.protocol.softwareLatency = opts.num("ts", 50);
    if (opts.has("emulate"))
        cfg.protocol.limitlessMode = LimitlessMode::fullEmulation;
    if (opts.has("no-trap-on-write"))
        cfg.protocol.trapOnWrite = false;
    if (opts.has("no-local-bit"))
        cfg.protocol.localBit = false;
    if (opts.str("network", "mesh") == "ideal")
        cfg.network = NetworkKind::ideal;
    if (opts.has("topology") &&
        !parseTopologyKind(opts.str("topology"), cfg.topology))
        fatal("--topology: unknown topology '%s'",
              opts.str("topology").c_str());
    if (opts.has("cluster")) {
        cfg.topology.clusterSize =
            static_cast<unsigned>(opts.num("cluster", 1));
        if (!cfg.topology.clusterSize ||
            cfg.numNodes % cfg.topology.clusterSize)
            fatal("--cluster %u must divide --nodes %u evenly",
                  cfg.topology.clusterSize, cfg.numNodes);
    }
    if (opts.has("hier")) {
        if (cfg.topology.clusterSize < 2)
            fatal("--hier needs chips of at least 2 nodes: pass "
                  "--cluster <n> with n >= 2 (got cluster size %u)",
                  cfg.topology.clusterSize);
        cfg.hier = true;
    }
    if (opts.str("memory-model", "sc") == "weak")
        cfg.proc.memoryModel = MemoryModel::weak;
    cfg.metricsInterval =
        static_cast<Tick>(opts.num("metrics-interval", 0));
    cfg.telemetryOut = opts.str("metrics-out", "telemetry.csv");
    cfg.txnTraceOut = opts.str("txn-trace-out", "");
    cfg.txnTopK = static_cast<std::size_t>(opts.num("txn-top", 16));
    cfg.simThreads = static_cast<unsigned>(opts.num("sim-threads", 1));
    // Parallel runs always export the pk.* utilization columns (and the
    // parallel_kernel stats block): anyone driving --sim-threads from
    // this CLI is exactly the audience for the imbalance telemetry.
    cfg.pkTelemetry = cfg.simThreads > 1;
    if (cfg.simThreads > 1) {
        // The parallel kernel reproduces stats, telemetry and figures
        // bit-identically, but the streaming observers assume a single
        // host thread; reject the combinations up front.
        if (cfg.network == NetworkKind::ideal)
            fatal("--sim-threads needs the mesh network: the ideal "
                  "network's same-tick delivery leaves no "
                  "cross-partition lookahead");
        if (opts.has("trace-out"))
            fatal("--sim-threads does not support --trace-out "
                  "(the event trace streams from one thread)");
        if (!cfg.txnTraceOut.empty())
            fatal("--sim-threads does not support --txn-trace-out");
        if (opts.has("capture-trace"))
            fatal("--sim-threads does not support --capture-trace");
        if (opts.has("log"))
            fatal("--sim-threads does not support --log "
                  "(debug logging interleaves across threads)");
    }

    FlightRecorder &fr = FlightRecorder::instance();
    fr.latency().reset();
    if (opts.has("trace-out") && !fr.traceOpen(opts.str("trace-out")))
        fatal("cannot write trace '%s'", opts.str("trace-out").c_str());
    if (opts.has("trace-lines")) {
        std::unordered_set<Addr> lines;
        const std::string list = opts.str("trace-lines");
        if (list.empty())
            fatal("--trace-lines: expected a comma-separated address list");
        std::size_t pos = 0;
        while (pos < list.size()) {
            std::size_t comma = list.find(',', pos);
            if (comma == std::string::npos)
                comma = list.size();
            const std::string tok = list.substr(pos, comma - pos);
            try {
                lines.insert(std::stoull(tok, nullptr, 0));
            } catch (...) {
                fatal("--trace-lines: '%s' is not an address",
                      tok.c_str());
            }
            pos = comma + 1;
        }
        fr.setLineFilter(std::move(lines));
    }
    if (opts.has("prof-out") && opts.has("trace-out"))
        HostProfiler::setSliceSink(&hostSliceSink);

    Machine machine(cfg);

    std::unique_ptr<Workload> workload;
    if (opts.has("replay-trace")) {
        std::ifstream in(opts.str("replay-trace"));
        if (!in)
            fatal("cannot open trace '%s'",
                  opts.str("replay-trace").c_str());
        workload = std::make_unique<TraceReplay>(TraceLog::load(in));
    } else {
        workload = makeWorkloadFactory(
            opts.str("workload", "weather"),
            static_cast<unsigned>(opts.num("iterations", 0)),
            opts.has("seed") ? cfg.seed : 0)();
    }
    workload->install(machine);

    std::unique_ptr<TraceCapture> capture;
    if (opts.has("capture-trace"))
        capture = std::make_unique<TraceCapture>(machine);

    const RunResult run = machine.run();
    if (!run.completed)
        fatal("run did not complete");
    workload->verify(machine);
    CoherenceMonitor(machine).checkQuiescent();
    fr.traceClose();

    if (capture) {
        std::ofstream out(opts.str("capture-trace"));
        if (!out)
            fatal("cannot write trace '%s'",
                  opts.str("capture-trace").c_str());
        capture->log().save(out);
        std::cout << "trace: " << capture->log().totalOps()
                  << " records -> " << opts.str("capture-trace") << "\n";
    }

    std::cout << "workload:          " << workload->name() << "\n"
              << "protocol:          " << cfg.protocol.name() << "\n"
              << "nodes:             " << cfg.numNodes << " ("
              << machine.topology().width() << "x"
              << machine.topology().height() << " "
              << topologyKindName(machine.topology().kind()) << ")\n"
              << "seed:              " << cfg.seed << "\n"
              << "execution time:    " << run.cycles << " cycles ("
              << run.cycles / 1e6 << " Mcycles)\n"
              << "simulator events:  " << run.events << "\n"
              << "host wall time:    " << run.hostSeconds << " s ("
              << run.eventsPerSecond() / 1e6 << " Mevents/s)\n"
              << "host peak RSS:     " << hostPeakRssKb() / 1024.0
              << " MB\n"
              << "remote latency:    "
              << machine.meanAccumulator("cache", "remote_latency")
              << " cycles mean\n"
              << "cache hits/misses: "
              << machine.sumCounter("cache", "hits") << " / "
              << machine.sumCounter("cache", "misses") << "\n"
              << "invalidations:     "
              << machine.sumCounter("mem", "invs_sent") << "\n"
              << "pointer evictions: "
              << machine.sumCounter("mem", "evictions") << "\n"
              << "LimitLESS traps:   "
              << machine.sumCounter("mem", "read_traps") << " read, "
              << machine.sumCounter("mem", "write_traps")
              << " write (m = " << machine.overflowFraction() << ")\n";
    if (machine.addressMap().hier()) {
        const std::uint64_t creq = machine.sumCounter("chip", "rreq") +
                                   machine.sumCounter("chip", "wreq");
        const std::uint64_t ctraps =
            machine.sumCounter("chip", "read_traps") +
            machine.sumCounter("chip", "write_traps");
        std::cout << "chip level:        " << creq << " requests, "
                  << machine.sumCounter("chip", "local_grants")
                  << " local grants, "
                  << machine.sumCounter("chip", "parent_reqs")
                  << " to global home\n"
                  << "chip traps:        "
                  << machine.sumCounter("chip", "read_traps") << " read, "
                  << machine.sumCounter("chip", "write_traps")
                  << " write (chip m = "
                  << (creq ? static_cast<double>(ctraps) / creq : 0.0)
                  << ")\n";
    }

    const PhaseBreakdown phases = fr.latency().snapshot();
    if (phases.completed) {
        std::cout << "remote phases:     req_net " << phases.reqNet
                  << " + home " << phases.home << " + trap "
                  << phases.trap << " + inv " << phases.inv
                  << " + reply_net " << phases.replyNet << " = "
                  << phases.total << " cycles over " << phases.completed
                  << " misses\n";
        if (machine.addressMap().hier())
            std::cout << "  two-level split: chip_home "
                      << phases.chipHome << " + global_home "
                      << phases.globalHome << " (of home), "
                      << "inter_chip_inv " << phases.interChipInv
                      << " (of inv)\n";
    }

    if (opts.has("trace-out"))
        std::cout << "event trace:       " << opts.str("trace-out")
                  << "\n";
    if (!cfg.txnTraceOut.empty()) {
        const TxnTracer &txn = fr.txn();
        std::cout << "txn traces:        " << machine.writeTxnTrace()
                  << " (" << txn.completedCount() << " transactions, top "
                  << std::min<std::uint64_t>(txn.topK(),
                                             txn.completedCount())
                  << " kept, " << txn.openCount() << " unfinished)\n";
        const QuantileReservoir &t = txn.quantiles().total;
        if (t.count())
            std::cout << "txn total latency: p50 " << t.quantile(0.50)
                      << "  p95 " << t.quantile(0.95) << "  p99 "
                      << t.quantile(0.99) << " cycles"
                      << (t.exact() ? " (exact)" : " (sampled)") << "\n";
    }
    if (machine.telemetry()) {
        const std::string json = machine.writeTelemetry(cfg.telemetryOut);
        std::cout << "telemetry:         " << cfg.telemetryOut << " + "
                  << json << "\n";
    }
    if (opts.has("stats-json")) {
        std::ofstream out(opts.str("stats-json"));
        if (!out)
            fatal("cannot write stats '%s'",
                  opts.str("stats-json").c_str());
        machine.dumpStatsJson(out, run.cycles, &run);
        std::cout << "stats json:        " << opts.str("stats-json")
                  << "\n";
    }
    if (opts.has("prof-out")) {
        HostProfiler::setSliceSink(nullptr);
        std::ofstream out(opts.str("prof-out"));
        if (!out)
            fatal("cannot write profile '%s'",
                  opts.str("prof-out").c_str());
        HostProfiler::writeFolded(out);
        std::cout << "host profile:      " << opts.str("prof-out")
                  << " (collapsed stacks)\n";
    }

    if (opts.has("dump-stats"))
        machine.dumpStats(std::cout);
    return 0;
}
