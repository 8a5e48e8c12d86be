/**
 * @file
 * Shared scaffolding for the figure-reproduction benches: the standard
 * 64-node Alewife-like machine and the workload sizes used across
 * Figures 7-10, plus paper-reference printing.
 */

#ifndef LIMITLESS_BENCH_BENCH_COMMON_HH
#define LIMITLESS_BENCH_BENCH_COMMON_HH

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/parallel_runner.hh"
#include "harness/result_table.hh"
#include "obs/json.hh"
#include "sim/log.hh"
#include "workload/multigrid.hh"
#include "workload/weather.hh"

namespace limitless::bench
{

/** The evaluation machine: 64 processors on an 8x8 wormhole mesh. */
inline MachineConfig
alewife64(ProtocolParams proto)
{
    MachineConfig cfg;
    cfg.numNodes = 64;
    cfg.protocol = proto;
    cfg.seed = 1991;
    return cfg;
}

/** Weather sized so runs land in the paper's hundreds-of-kilocycles
 *  regime while keeping a full figure sweep under a few minutes. */
inline WeatherParams
weatherFigureParams(bool optimized = false)
{
    WeatherParams wp;
    wp.iterations = 60;
    wp.columnLines = 64;
    wp.optimizeHotVariable = optimized;
    return wp;
}

inline MultigridParams
multigridFigureParams()
{
    MultigridParams mp;
    mp.iterations = 60;
    mp.interiorLines = 48;
    mp.boundaryWords = 4;
    return mp;
}

/** Print the "paper reports" block ahead of the measured rows. */
inline void
paperReference(const char *figure, const char *text)
{
    std::cout << "\n--- " << figure << " ---\n" << text << "\n";
}

inline bool
wantCsv(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], "--csv"))
            return true;
    return false;
}

/** `--metrics-interval N`: telemetry sampling period for every run in
 *  the sweep (0 = off, the default — and then nothing below changes a
 *  bench's behaviour or output). */
inline Tick
parseMetricsIntervalFlag(int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (!std::strcmp(argv[i], "--metrics-interval"))
            return static_cast<Tick>(std::strtoull(argv[i + 1], nullptr, 10));
    return 0;
}

/** `--txn-trace`: per-transaction causal tracing for every run in the
 *  sweep (off by default — and then nothing below changes a bench's
 *  behaviour or output). */
inline bool
parseTxnTraceFlag(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], "--txn-trace"))
            return true;
    return false;
}

/** `--nodes N`: override the bench's machine size (0 = keep the
 *  default, and nothing below changes a bench's output). */
inline unsigned
parseNodesFlag(int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (!std::strcmp(argv[i], "--nodes"))
            return static_cast<unsigned>(
                std::strtoul(argv[i + 1], nullptr, 10));
    return 0;
}

/**
 * `--topology <mesh|torus|express[:k]>`: run the sweep on a different
 * interconnect. @return true when the flag was given (params filled);
 * false leaves the bench on its default mesh, output unchanged.
 */
inline bool
parseTopologyFlag(int argc, char **argv, TopologyParams &topo)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (!std::strcmp(argv[i], "--topology")) {
            if (!parseTopologyKind(argv[i + 1], topo))
                fatal("--topology: unknown topology '%s'", argv[i + 1]);
            return true;
        }
    }
    return false;
}

/** Comma-separated topology list ("mesh,torus,express:4") for sweep
 *  benches that fan out across interconnects; empty when absent. */
inline std::vector<TopologyParams>
parseTopologyListFlag(int argc, char **argv)
{
    std::vector<TopologyParams> topos;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--topology"))
            continue;
        const std::string list = argv[i + 1];
        std::size_t pos = 0;
        while (pos <= list.size()) {
            std::size_t comma = list.find(',', pos);
            if (comma == std::string::npos)
                comma = list.size();
            TopologyParams topo;
            const std::string tok = list.substr(pos, comma - pos);
            if (!parseTopologyKind(tok, topo))
                fatal("--topology: unknown topology '%s'", tok.c_str());
            topos.push_back(topo);
            pos = comma + 1;
        }
        break;
    }
    return topos;
}

/**
 * Machine-shape overrides shared by the figure benches: `--nodes N`
 * re-sizes the machine and `--topology <name>` swaps the interconnect.
 * With neither flag, apply() is a no-op and a bench's default output is
 * bit-identical to a build without these flags.
 */
struct ShapeOverride
{
    unsigned nodes = 0;
    TopologyParams topology;
    bool hasTopology = false;

    static ShapeOverride
    parse(int argc, char **argv)
    {
        ShapeOverride s;
        s.nodes = parseNodesFlag(argc, argv);
        s.hasTopology = parseTopologyFlag(argc, argv, s.topology);
        return s;
    }

    void
    apply(MachineConfig &cfg) const
    {
        if (nodes)
            cfg.numNodes = nodes;
        if (hasTopology)
            cfg.topology = topology;
    }
};

/** Comma-separated machine sizes ("16,64,256"); empty when absent. */
inline std::vector<unsigned>
parseNodesListFlag(int argc, char **argv)
{
    std::vector<unsigned> sizes;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--nodes"))
            continue;
        const std::string list = argv[i + 1];
        std::size_t pos = 0;
        while (pos <= list.size()) {
            std::size_t comma = list.find(',', pos);
            if (comma == std::string::npos)
                comma = list.size();
            sizes.push_back(static_cast<unsigned>(
                std::strtoul(list.substr(pos, comma - pos).c_str(),
                             nullptr, 10)));
            pos = comma + 1;
        }
        break;
    }
    return sizes;
}

/** File-name-safe form of a row label ("limitless4 Ts=50" ->
 *  "limitless4_Ts_50"). */
inline std::string
sanitizeLabel(const std::string &label)
{
    std::string out = label;
    for (char &c : out)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return out;
}

/**
 * Enable telemetry on one sweep config: sample every @p interval cycles
 * and write TELEM_<bench>_<label>.csv (+ .json sidecar) from inside
 * runExperiment. No-op when @p interval is 0, keeping the default sweep
 * bit-identical to a telemetry-free build.
 */
inline void
applyTelemetry(MachineConfig &cfg, Tick interval, const std::string &bench,
               const std::string &label)
{
    if (!interval)
        return;
    cfg.metricsInterval = interval;
    cfg.telemetryOut =
        "TELEM_" + bench + "_" + sanitizeLabel(label) + ".csv";
}

/**
 * Enable the transaction tracer on one sweep config: capture span trees
 * and per-phase quantiles, writing TXN_<bench>_<label>.json from inside
 * runExperiment. No-op when @p on is false, keeping the default sweep
 * bit-identical to a tracer-free build.
 */
inline void
applyTxnTrace(MachineConfig &cfg, bool on, const std::string &bench,
              const std::string &label)
{
    if (!on)
        return;
    cfg.txnTraceOut = "TXN_" + bench + "_" + sanitizeLabel(label) + ".json";
}

/**
 * Run one experiment per thunk, optionally across threads (`--jobs N`,
 * parsed by the caller via parseJobsFlag; default 1 = serial, exactly
 * the pre-parallelism loop). Rows are appended to @p table in thunk
 * order whatever the job count, so figure output is identical serial
 * or parallel — the experiments are independent machines and every
 * per-run global (flight recorder, packet pool) is thread-local.
 */
inline void
runSweep(ResultTable &table,
         std::vector<std::function<ExperimentOutcome()>> runs,
         unsigned jobs)
{
    ParallelRunner runner(jobs);
    const ParallelRunner::Task<ExperimentOutcome> task =
        [&runs](std::size_t i, std::ostream &) { return runs[i](); };
    for (const ExperimentOutcome &o :
         runner.map<ExperimentOutcome>(runs.size(), task, std::cout))
        table.add(o);
}

/**
 * Write the table's rows (headline numbers plus the per-phase latency
 * breakdown) to BENCH_<name>.json in the working directory, for
 * downstream plotting without scraping stdout.
 */
inline void
writeBenchJson(const std::string &name, const ResultTable &table)
{
    const std::string path = "BENCH_" + name + ".json";
    std::ofstream out(path);
    if (!out) {
        std::cerr << "bench: cannot write " << path << "\n";
        return;
    }
    JsonWriter w(out);
    w.object(2).field("bench", name).key("rows").array(4);
    for (const auto &r : table.rows()) {
        w.object().field("label", r.label).field("cycles", r.cycles);
        w.field("mcycles", r.mcycles).field("remote_latency", r.remoteLatency);
        w.field("m", r.overflowFraction).field("read_traps", r.readTraps);
        w.field("write_traps", r.writeTraps).field("invs_sent", r.invsSent);
        r.phases.writeJson(w.key("phases"));
        // Run -> report link; key only present when telemetry ran, so
        // default sweeps stay byte-identical.
        if (!r.telemetryPath.empty())
            w.field("telemetry", r.telemetryPath);
        // Same rule for tracing: keys appear only when the tracer ran.
        if (!r.txnTracePath.empty())
            w.field("txn_trace", r.txnTracePath);
        if (r.txnQuantiles.count()) {
            w.field("txn_completed", r.txnCompleted);
            r.txnQuantiles.writeJson(w.key("phase_quantiles"));
        }
        // Parallel-kernel rows only (cfg.simThreads > 1): serial rows
        // omit the key so existing BENCH files stay byte-identical.
        if (r.simThreads)
            w.field("sim_threads", r.simThreads);
        w.end();
    }
    w.end().end();
    out << "\n";
    std::cout << "json: " << path << "\n";
}

} // namespace limitless::bench

#endif // LIMITLESS_BENCH_BENCH_COMMON_HH
