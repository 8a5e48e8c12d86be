/**
 * @file
 * limitless-check: exhaustive protocol model checker over the
 * guarded-action tables. With no arguments it runs the standard sweep —
 * every directory scheme over the smoke (2 nodes, 1 line), conflict
 * (2 nodes, 2 lines) and update (2 nodes, 1 line) scripts, exploring
 * every interleaving of packet deliveries and processor issues through
 * the same TransitionTable rows the simulator runs. Exits nonzero on
 * the first violation, after minimizing the counterexample and (with
 * --trace-out) writing a trace that `limitless-sim --replay-check` can
 * step through. See docs/CHECKER.md.
 *
 * Examples:
 *   limitless-check                       # standard sweep + coverage
 *   limitless-check --protocol limitless1 --nodes 3 --script conflict
 *   limitless-check --flip-guard limitless:home:4 --trace-out cex.trace
 *   limitless-check --replay cex.trace
 *   limitless-check --coverage cov.txt    # write the coverage report
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "check/coverage.hh"
#include "check/explorer.hh"
#include "check/minimize.hh"
#include "check/trace_io.hh"
#include "harness/cli.hh"
#include "harness/parallel_runner.hh"
#include "obs/json.hh"
#include "sim/log.hh"

using namespace limitless;

namespace
{

void
usage()
{
    std::cout <<
        "limitless-check — exhaustive protocol model checker\n\n"
        "  (no arguments)           run the standard sweep: every scheme "
        "x every script\n"
        "  --protocol <name>        full-map | dir<i>nb | limitless<i> | "
        "chained | private-only\n"
        "  --emulate                limitless: full trap-handler "
        "emulation instead of stall\n"
        "  --pointers <n>           hardware pointers (default 1 — "
        "smallest overflow point)\n"
        "  --nodes <n>              machine size, 2-4 (default 2)\n"
        "  --lines <n>              distinct cache lines (default per "
        "script)\n"
        "  --script <name>          smoke | conflict | update (default "
        "smoke)\n"
        "  --topology <name>        mesh | torus | express[:stride] "
        "(default mesh)\n"
        "  --cluster <n>            nodes per chip for the home mapping "
        "(default 1)\n"
        "  --hier                   two-level directories (needs "
        "--cluster >= 2)\n"
        "  --ops <n>                ops per node (0 = script's natural "
        "length)\n"
        "  --max-states <n>         state cap (default 200000)\n"
        "  --max-depth <n>          schedule-depth cap (default 64)\n"
        "  --budget-ms <n>          wall-clock budget per config "
        "(0 = none)\n"
        "  --jobs <n>               explore configs on n threads "
        "(default 1; 0 = all cores);\n"
        "                           output and results stay in config "
        "order\n"
        "  --flip-guard <k:s:row>   invert a table row's guard, e.g. "
        "limitless:home:4\n"
        "                           (row may be a numeric id or a row "
        "label)\n"
        "  --trace-out <file>       write the minimized counterexample "
        "trace\n"
        "  --replay <file>          replay a trace instead of exploring\n"
        "  --coverage <file>        write the row-coverage report "
        "(use - for stdout)\n"
        "  --json                   machine-readable per-config results "
        "on stdout\n"
        "  --quiet                  only report violations\n"
        "  --help\n";
}

/** "kind:side:row" -> GuardFlip; row may be an id or a row label. */
GuardFlip
parseFlipSpec(const std::string &spec)
{
    std::istringstream is(spec);
    std::string kind_s, side_s, row_s;
    if (!std::getline(is, kind_s, ':') ||
        !std::getline(is, side_s, ':') || !std::getline(is, row_s))
        fatal("--flip-guard: expected <kind>:<side>:<row>, got '%s'",
              spec.c_str());
    GuardFlip f;
    f.kind = checkKindFromName(kind_s);
    if (side_s == "home")
        f.side = TableSide::home;
    else if (side_s == "cache")
        f.side = TableSide::cache;
    else
        fatal("--flip-guard: side must be home or cache, got '%s'",
              side_s.c_str());
    if (!row_s.empty() &&
        row_s.find_first_not_of("0123456789") == std::string::npos)
        f.row = static_cast<std::uint16_t>(std::stoul(row_s));
    else
        f.row = findRowByLabel(f.kind, f.side, row_s);
    return f;
}

struct ConfigOutcome
{
    CheckConfig cfg;
    ExploreResult result;
};

void
printStats(std::ostream &os, const CheckConfig &cfg, const ExploreStats &s)
{
    os << "  " << cfg.name() << ": " << s.states << " states, "
       << s.transitions << " transitions, " << s.terminals
       << " terminals, depth " << s.maxDepth << ", "
       << s.elapsedMs << " ms"
       << (s.exhaustive() ? "" : "  [TRUNCATED]") << "\n";
}

void
printJson(std::ostream &os, const CheckConfig &cfg, const ExploreResult &r)
{
    const ExploreStats &s = r.stats;
    JsonWriter w(os);
    w.object().field("config", cfg.name()).field("states", s.states);
    w.field("transitions", s.transitions).field("terminals", s.terminals);
    w.field("max_depth", s.maxDepth).field("elapsed_ms", s.elapsedMs);
    w.field("exhaustive", s.exhaustive());
    w.field("violation", violationKindName(r.cex ? r.cex->kind
                                                 : ViolationKind::none));
    w.end();
    os << "\n";
}

void
printCounterexample(const CheckConfig &cfg, const Counterexample &cex,
                    std::size_t original_len)
{
    std::cout << "VIOLATION in " << cfg.name() << ": "
              << violationKindName(cex.kind) << "\n";
    for (const std::string &m : cex.messages)
        std::cout << "  " << m << "\n";
    std::cout << "  counterexample (" << cex.schedule.size()
              << " choices, minimized from " << original_len << "):\n";
    for (const Choice &c : cex.schedule)
        std::cout << "    " << describeChoice(c) << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const std::map<std::string, bool> known = {
        {"protocol", true},  {"emulate", false}, {"pointers", true},
        {"nodes", true},     {"lines", true},    {"script", true},
        {"ops", true},       {"max-states", true}, {"max-depth", true},
        {"budget-ms", true}, {"flip-guard", true}, {"trace-out", true},
        {"replay", true},    {"coverage", true}, {"json", false},
        {"quiet", false},    {"help", false},    {"jobs", true},
        {"topology", true},  {"cluster", true},  {"hier", false},
    };
    const CliOptions opts = CliOptions::parse(argc, argv, known);
    if (opts.has("help")) {
        usage();
        return 0;
    }

    if (opts.has("replay")) {
        CheckTrace trace;
        std::string error;
        if (!loadTrace(opts.str("replay"), trace, &error))
            fatal("--replay: %s", error.c_str());
        const bool reproduced =
            replayTrace(trace, opts.has("quiet") ? nullptr : &std::cout);
        std::cout << (reproduced ? "REPRODUCED" : "NOT REPRODUCED")
                  << ": " << violationKindName(trace.violation) << " in "
                  << trace.config.name() << "\n";
        return reproduced ? 0 : 1;
    }

    std::vector<GuardFlip> flips;
    if (opts.has("flip-guard")) {
        flips.push_back(parseFlipSpec(opts.str("flip-guard")));
        DispatchHooks::instance().flipGuard(flips[0].kind, flips[0].side,
                                            flips[0].row);
    }

    ExploreLimits limits;
    limits.maxStates = opts.num("max-states", limits.maxStates);
    limits.maxDepth =
        static_cast<unsigned>(opts.num("max-depth", limits.maxDepth));
    limits.maxMillis = opts.num("budget-ms", 0);

    // Build the config list: one explicit config, or the standard
    // sweep (every scheme x every script; limitless both modes).
    std::vector<CheckConfig> configs;
    if (opts.has("protocol")) {
        CheckConfig cfg;
        cfg.protocol = parseProtocol(opts.str("protocol"));
        if (opts.has("pointers"))
            cfg.protocol.pointers =
                static_cast<unsigned>(opts.num("pointers", 1));
        if (opts.has("emulate"))
            cfg.protocol.limitlessMode = LimitlessMode::fullEmulation;
        cfg.script = opts.str("script", "smoke");
        cfg.nodes = static_cast<unsigned>(opts.num("nodes", 2));
        cfg.lines = static_cast<unsigned>(
            opts.num("lines", cfg.script == "conflict" ? 2 : 1));
        cfg.opsPerNode = static_cast<unsigned>(opts.num("ops", 0));
        if (opts.has("topology") &&
            !parseTopologyKind(opts.str("topology"), cfg.topology))
            fatal("--topology: unknown topology '%s'",
                  opts.str("topology").c_str());
        if (opts.has("cluster")) {
            cfg.topology.clusterSize =
                static_cast<unsigned>(opts.num("cluster", 1));
            if (!cfg.topology.clusterSize ||
                cfg.nodes % cfg.topology.clusterSize)
                fatal("--cluster %u must divide --nodes %u evenly",
                      cfg.topology.clusterSize, cfg.nodes);
        }
        if (opts.has("hier")) {
            if (cfg.topology.clusterSize < 2)
                fatal("--hier needs chips of at least 2 nodes: pass "
                      "--cluster <n> with n >= 2 (got cluster size %u)",
                      cfg.topology.clusterSize);
            cfg.hier = true;
        }
        configs.push_back(cfg);
    } else {
        // Keep the software-extension stall short so the LimitLESS
        // stall window interleaves within the depth bound.
        std::vector<ProtocolParams> protos;
        protos.push_back(protocols::fullMap());
        protos.push_back(protocols::dirNB(1));
        protos.push_back(protocols::limitlessStall(1, 8));
        {
            ProtocolParams p = protocols::limitlessStall(1, 8);
            p.limitlessMode = LimitlessMode::fullEmulation;
            protos.push_back(p);
        }
        protos.push_back(protocols::chained());
        {
            ProtocolParams p;
            p.kind = ProtocolKind::privateOnly;
            protos.push_back(p);
        }
        for (const ProtocolParams &p : protos) {
            for (const char *script :
                 {"smoke", "conflict", "update", "rmw"}) {
                // The write-update path (WUPD) exists only in the
                // pointer schemes; chained and private-only homes
                // never see update-mode traffic.
                const bool pointer_scheme =
                    p.kind == ProtocolKind::fullMap ||
                    p.kind == ProtocolKind::limited ||
                    p.kind == ProtocolKind::limitless;
                if (std::string(script) == "update" && !pointer_scheme)
                    continue;
                CheckConfig cfg;
                cfg.protocol = p;
                cfg.script = script;
                cfg.nodes = 2;
                cfg.lines = cfg.script == "conflict" ? 2 : 1;
                configs.push_back(cfg);
            }
        }
        // Three-node smoke configs: a third node is what drives the
        // second-sharer rows — pointer eviction (limited), overflow
        // traps (LimitLESS), longer chains (chained), mid-transaction
        // defers (full-map) and remote recalls (private).
        for (const ProtocolParams &p : protos) {
            CheckConfig cfg;
            cfg.protocol = p;
            cfg.script = "smoke";
            cfg.nodes = 3;
            configs.push_back(cfg);
        }
        // No zero-depth-defer config: a BUSY-nacked cache spins its
        // retry loop inside one drain (retry exit needs a packet
        // delivery, which only happens between drains), so the BUSY
        // rows are inherently outside this drain model — they are
        // covered by the random-stress fuzz tier instead (see
        // docs/CHECKER.md).
        {
            // Trap-Always (no Trap-On-Write): after an overflow every
            // request traps, driving the ro_sw_read row. Under full
            // emulation the trap handler takes those requests while the
            // responses run in hardware, also through the handler's
            // interlock (the cache's BUSY retry); the conflict script
            // adds the evictions.
            CheckConfig cfg;
            cfg.protocol = protocols::limitlessStall(1, 8);
            cfg.protocol.trapOnWrite = false;
            cfg.script = "smoke";
            cfg.nodes = 3;
            configs.push_back(cfg);
            cfg.protocol.limitlessMode = LimitlessMode::fullEmulation;
            configs.push_back(cfg);
            cfg.script = "conflict";
            cfg.lines = 2;
            configs.push_back(cfg);
        }
        // Cluster-interleaved torus configs: a 2x2 torus of two 2-node
        // chips. The checker's ControlledNetwork explores all delivery
        // interleavings regardless of link structure, so what these add
        // is the cluster-interleaved home mapping (homeOf splits the
        // line index into chip and within-chip digits) under full
        // interleaving exploration.
        for (ProtocolKind kind :
             {ProtocolKind::fullMap, ProtocolKind::limitless}) {
            CheckConfig cfg;
            cfg.protocol = kind == ProtocolKind::limitless
                               ? protocols::limitlessStall(1, 8)
                               : protocols::fullMap();
            cfg.script = "smoke";
            cfg.nodes = 4;
            cfg.topology.kind = TopologyKind::torus;
            cfg.topology.width = 2;
            cfg.topology.height = 2;
            cfg.topology.clusterSize = 2;
            configs.push_back(cfg);
        }
        // Two-chip two-level configs: the same 2x2 torus of two 2-node
        // chips with --hier, exploring every interleaving of the
        // chip-home FSM against the unmodified global tables — both
        // levels run LimitLESS software spill in the limitless1 config
        // (1 pointer at each level). The rmw config adds the chip-level
        // write-gather / local-recall rows on top of the read path.
        {
            auto hierConfig = [](ProtocolParams p) {
                CheckConfig cfg;
                cfg.protocol = p;
                cfg.script = "smoke";
                cfg.nodes = 4;
                cfg.topology.kind = TopologyKind::torus;
                cfg.topology.width = 2;
                cfg.topology.height = 2;
                cfg.topology.clusterSize = 2;
                cfg.hier = true;
                return cfg;
            };
            configs.push_back(hierConfig(protocols::fullMap()));
            configs.push_back(hierConfig(protocols::dirNB(1)));
            configs.push_back(
                hierConfig(protocols::limitlessStall(1, 8)));
            configs.push_back(hierConfig(protocols::chained()));
            CheckConfig rmw =
                hierConfig(protocols::limitlessStall(1, 8));
            rmw.script = "rmw";
            configs.push_back(rmw);
        }
    }

    CoverageScope coverage_scope;
    const bool quiet = opts.has("quiet");
    const bool json = opts.has("json");
    const unsigned jobs = static_cast<unsigned>(opts.num("jobs", 1));
    bool violated = false;

    // One task per config; each task's lines go to a private buffer the
    // runner flushes in config order, so --jobs output is byte-identical
    // to a serial sweep of the same configs.
    auto explore_one = [&](std::size_t i,
                           std::ostream &os) -> ExploreResult {
        ExploreResult result = explore(configs[i], limits);
        if (json)
            printJson(os, configs[i], result);
        else if (!quiet)
            printStats(os, configs[i], result.stats);
        return result;
    };

    std::vector<ExploreResult> results;
    if (jobs == 1) {
        // Serial: stop at the first violation, like the sweep always has.
        for (std::size_t i = 0; i < configs.size(); ++i) {
            results.push_back(explore_one(i, std::cout));
            if (!results.back().ok())
                break;
        }
    } else {
        ParallelRunner runner(jobs);
        results = runner.map<ExploreResult>(configs.size(), explore_one,
                                            std::cout);
    }

    // Report the first violation in config (submission) order — the same
    // one a serial sweep reports — and minimize it serially.
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].ok())
            continue;
        const CheckConfig &cfg = configs[i];
        ExploreResult &result = results[i];

        violated = true;
        const std::size_t original_len = result.cex->schedule.size();
        Counterexample cex = *result.cex;
        cex.schedule =
            minimizeSchedule(cfg, cex.schedule, cex.kind);
        printCounterexample(cfg, cex, original_len);

        if (opts.has("trace-out")) {
            CheckTrace trace;
            trace.config = cfg;
            trace.flips = flips;
            trace.violation = cex.kind;
            trace.messages = cex.messages;
            trace.schedule = cex.schedule;
            std::string error;
            if (!saveTrace(opts.str("trace-out"), trace, &error))
                fatal("--trace-out: %s", error.c_str());
            std::cout << "  trace: " << opts.str("trace-out")
                      << "  (replay: limitless-sim --replay-check "
                      << opts.str("trace-out") << ")\n";
        }
        break; // one counterexample per run: later configs share hooks
    }

    if (opts.has("coverage") && !violated) {
        std::vector<ProtocolKind> kinds;
        for (const CheckConfig &cfg : configs) {
            if (std::find(kinds.begin(), kinds.end(),
                          cfg.protocol.kind) == kinds.end())
                kinds.push_back(cfg.protocol.kind);
        }
        const std::vector<TableCoverage> cov =
            collectCoverage(coverage_scope, kinds);
        const std::string path = opts.str("coverage");
        if (path == "-") {
            writeCoverageReport(std::cout, cov);
        } else {
            std::ofstream os(path);
            if (!os)
                fatal("cannot write coverage report '%s'", path.c_str());
            writeCoverageReport(os, cov);
            if (!quiet)
                std::cout << "coverage report: " << path << "\n";
        }
    }

    DispatchHooks::instance().clearFlips();
    if (!violated && !quiet && !json)
        std::cout << "OK: " << configs.size()
                  << " config(s) explored, no violations\n";
    return violated ? 1 : 0;
}
