#include "machine/machine.hh"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <fstream>
#include <iostream>

#include <sys/resource.h>
#include <unistd.h>

#include "obs/flight_recorder.hh"
#include "obs/host_profiler.hh"
#include "obs/json.hh"
#include "obs/telemetry.hh"
#include "sim/log.hh"
#include "sim/parallel_kernel.hh"

namespace limitless
{

namespace
{
/** Every run loop poll (after each 512-event burst serially, after each
 *  window in parallel) checks completion and the cycle cap. Work that
 *  walks every node or partition buffer runs on every pollStride-th
 *  poll instead: the watchdog's op count and the parallel kernel's
 *  latency-stamp replay. */
constexpr std::uint64_t pollStride = 64;
} // namespace

std::uint64_t
hostPeakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_maxrss);
}

std::string
hostName()
{
    char name[256] = {};
    if (gethostname(name, sizeof name - 1) != 0)
        return "unknown";
    return name;
}

Machine::Machine(const MachineConfig &cfg)
    : _cfg(cfg), _topo(cfg.makeTopology()),
      _amap(cfg.numNodes, cfg.lineBytes, cfg.bytesPerNode, cfg.mapping,
            cfg.topology.clusterSize)
{
    assert(_topo->numNodes() == cfg.numNodes &&
           "grid dimensions must cover every node");

    // Two-level mode needs a real chip (cluster of >= 2 nodes) and a
    // scheme with sharing to delegate; otherwise it degenerates to the
    // flat machine (no chip homes, flat request routing) — a property
    // the tests pin down to byte-identical stats. The CLI front ends
    // reject --hier with a 1-node cluster up front so users get a clear
    // error rather than a silent flat run.
    if (cfg.hier && cfg.topology.clusterSize >= 2 &&
        cfg.protocol.kind != ProtocolKind::privateOnly)
        _amap.setHier(true);

    if (cfg.makeNetwork)
        _net = cfg.makeNetwork(_eq);
    else if (cfg.network == NetworkKind::mesh)
        _net = std::make_unique<MeshNetwork>(_eq, _topo, cfg.meshParams);
    else
        _net = std::make_unique<IdealNetwork>(_eq, _topo, cfg.idealParams);
    assert(_net->numNodes() >= cfg.numNodes &&
           "network must cover every node");

    // Spatial partitioning for the window-parallel kernel. Whole
    // clusters stay in one partition (the chip boundary is the natural
    // seam under --hier; for flat machines cluster == 1 node), and the
    // thread count clamps to the partitionable units so every partition
    // owns at least one. Cross-partition influence travels only through
    // the mesh (>= one router cycle), which is what makes same-window
    // parallel execution exact — the ideal network delivers in the same
    // tick and is therefore rejected.
    if (cfg.simThreads > 1) {
        if (cfg.makeNetwork || cfg.network != NetworkKind::mesh)
            fatal("simThreads > 1 requires the built-in mesh network "
                  "(cross-partition lookahead comes from its hop latency)");
        if (!cfg.txnTraceOut.empty())
            fatal("simThreads > 1 does not support transaction tracing");
    }
    const unsigned cluster = std::max(1u, cfg.topology.clusterSize);
    const unsigned units = std::max(1u, cfg.numNodes / cluster);
    _numParts = std::clamp(cfg.simThreads, 1u, units);
    _partOf.resize(cfg.numNodes);
    for (NodeId i = 0; i < cfg.numNodes; ++i) {
        const unsigned unit = std::min(i / cluster, units - 1);
        _partOf[i] = static_cast<unsigned>(
            static_cast<std::uint64_t>(unit) * _numParts / units);
    }
    _partQueues.assign(1, &_eq);
    for (unsigned p = 1; p < _numParts; ++p) {
        _workerQueues.push_back(std::make_unique<EventQueue>());
        _partQueues.push_back(_workerQueues.back().get());
    }
    if (_numParts > 1) {
        auto *mesh = dynamic_cast<MeshNetwork *>(_net.get());
        mesh->setShard(_partOf, _partQueues);
        // Host-utilization accounting for the run; allocated here so
        // the telemetry probes registered below can capture it.
        _pkStats = std::make_unique<ParallelKernelStats>(_numParts);
    }

    _nodes.reserve(cfg.numNodes);
    for (NodeId i = 0; i < cfg.numNodes; ++i)
        _nodes.push_back(std::make_unique<Node>(*_partQueues[_partOf[i]],
                                                i, _amap, _cfg, *_net,
                                                _policy));

    // Let tick-less components (directories) timestamp trace events off
    // this machine's clock.
    FlightRecorder &fr = FlightRecorder::instance();
    fr.setClock(&_eq);

    // The tracer follows this machine's config either way: enabling
    // starts a fresh capture, disabling guarantees back-to-back runs in
    // one process (sweeps, tests) never inherit a stale tracer.
    if (!cfg.txnTraceOut.empty())
        fr.txn().enable(cfg.txnTopK);
    else
        fr.txn().disable();

    if (cfg.metricsInterval > 0)
        setupTelemetry();
}

void
Machine::setupTelemetry()
{
    _telemetry = std::make_unique<Telemetry>(_eq, _cfg.metricsInterval);
    Telemetry &t = *_telemetry;
    t.setMeta("protocol", _cfg.protocol.name());
    t.setMeta("nodes", std::to_string(_cfg.numNodes));
    t.setMeta("seed", std::to_string(_cfg.seed));

    // Counters are resolved once here; each probe is then a flat sum of
    // pre-found pointers (the watchdog's idiom), so a sample never does
    // name lookups. A component no node has (flat runs lack "chip") adds
    // nothing, but a name missing from every set of a component that
    // exists is a typo that would read 0 forever, so it is fatal.
    using CompStat = std::pair<const char *, const char *>;
    auto sum = [this](std::vector<CompStat> stats) {
        std::vector<const Counter *> cs;
        for (const auto &[comp, name] : stats) {
            bool have_set = false;
            const std::size_t found = cs.size();
            for (const auto &node : _nodes) {
                const StatSet *set = node->statSet(comp);
                have_set |= set != nullptr;
                if (const Stat *s = set ? set->find(name) : nullptr)
                    cs.push_back(static_cast<const Counter *>(s));
            }
            if (have_set && cs.size() == found)
                fatal("telemetry: no %s stat named '%s'", comp, name);
        }
        return Telemetry::Probe([cs = std::move(cs)]() {
            double total = 0.0;
            for (const Counter *c : cs)
                total += static_cast<double>(c->value());
            return total;
        });
    };

    t.addRate("proc.ops", sum({{"proc", "ops"}}));

    // Cache layer: windowed miss / invalidation rates.
    t.addRate("cache.misses", sum({{"cache", "misses"}}));
    t.addRatio("cache.miss_rate", sum({{"cache", "misses"}}),
               sum({{"cache", "hits"}, {"cache", "misses"}}));
    t.addRate("cache.invs_rx", sum({{"cache", "invs"}}));
    t.addGauge("cache.waiting", [this]() {
        double n = 0.0;
        for (const auto &node : _nodes)
            n += static_cast<double>(node->cache().waitingAccesses());
        return n;
    });

    // Home/directory layer. mem.m is the windowed overflow fraction;
    // windows weighted by mem.reqs recover the run-level m exactly.
    t.addRate("mem.reqs", sum({{"mem", "rreq"}, {"mem", "wreq"}}));
    t.addRate("mem.traps",
              sum({{"mem", "read_traps"}, {"mem", "write_traps"}}));
    t.addRatio("mem.m",
               sum({{"mem", "read_traps"}, {"mem", "write_traps"}}),
               sum({{"mem", "rreq"}, {"mem", "wreq"}}));
    t.addRate("mem.trap_cycles", sum({{"mem", "trap_cycles"}}));
    t.addGauge("dir.entries", [this]() {
        DirOccupancy occ;
        for (const auto &node : _nodes)
            node->mem().directory().occupancy(occ);
        return static_cast<double>(occ.entries);
    });
    t.addGauge("dir.ptr_util", [this]() {
        DirOccupancy occ;
        for (const auto &node : _nodes)
            node->mem().directory().occupancy(occ);
        return occ.pointerSlots ? static_cast<double>(occ.pointersUsed) /
                                      static_cast<double>(occ.pointerSlots)
                                : 0.0;
    });
    t.addGauge("dir.sw_entries", [this]() {
        double n = 0.0;
        for (const auto &node : _nodes)
            n += static_cast<double>(
                node->mem().softwareTable().entries());
        return n;
    });
    t.addGauge("dir.sw_bytes", [this]() {
        double n = 0.0;
        for (const auto &node : _nodes)
            n += static_cast<double>(
                node->mem().softwareTable().footprintBytes());
        return n;
    });

    // Chip-home layer (two-level mode only): per-level m(t), pointer
    // occupancy and backlog, so the two levels' software-spill rates
    // can be read side by side with the global mem.* series.
    if (_cfg.hier && _nodes[0]->chipHome()) {
        t.addRate("chip.reqs", sum({{"chip", "rreq"}, {"chip", "wreq"}}));
        t.addRate("chip.traps", sum({{"chip", "read_traps"},
                                     {"chip", "write_traps"}}));
        t.addRatio("chip.m",
                   sum({{"chip", "read_traps"}, {"chip", "write_traps"}}),
                   sum({{"chip", "rreq"}, {"chip", "wreq"}}));
        t.addRate("chip.trap_cycles", sum({{"chip", "trap_cycles"}}));
        t.addRate("chip.parent_reqs", sum({{"chip", "parent_reqs"}}));
        t.addRate("chip.local_grants", sum({{"chip", "local_grants"}}));
        t.addGauge("chip.ptr_util", [this]() {
            DirOccupancy occ;
            for (const auto &node : _nodes)
                if (const ChipHomeController *ch = node->chipHome())
                    ch->directory().occupancy(occ);
            return occ.pointerSlots
                       ? static_cast<double>(occ.pointersUsed) /
                             static_cast<double>(occ.pointerSlots)
                       : 0.0;
        });
        t.addGauge("chip.sw_entries", [this]() {
            double n = 0.0;
            for (const auto &node : _nodes)
                if (const ChipHomeController *ch = node->chipHome())
                    n += static_cast<double>(
                        ch->softwareTable().entries());
            return n;
        });
        t.addGauge("chip.queue_depth", [this]() {
            double n = 0.0;
            for (const auto &node : _nodes)
                if (const ChipHomeController *ch = node->chipHome())
                    n += static_cast<double>(ch->queueDepth());
            return n;
        });
    }

    // Kernel layer: trap backlog and emulation occupancy. kern.occupancy
    // is the fraction of this window's node-cycles spent in trap code
    // (dispatcher occupancy + inline Ts charges), averaged over nodes.
    t.addGauge("trap.queue_depth", [this]() {
        double n = 0.0;
        for (const auto &node : _nodes)
            n += static_cast<double>(node->ipi().depth());
        return n;
    });
    t.addGauge("trap.queue_max", [this]() {
        std::size_t peak = 0;
        for (const auto &node : _nodes)
            peak = std::max(peak, node->ipi().depth());
        return static_cast<double>(peak);
    });
    t.addRate("trap.cycles", sum({{"trap", "cycles"}}));
    t.addRatio("kern.occupancy",
               sum({{"trap", "cycles"}, {"mem", "trap_cycles"}}),
               [this]() {
                   return static_cast<double>(_eq.now()) * _cfg.numNodes;
               });

    // Network layer (mesh only): utilization is flit-hops per
    // router-cycle, correct even for the final partial window because
    // both deltas cover the same span.
    if (auto *mesh = dynamic_cast<MeshNetwork *>(_net.get())) {
        mesh->enableTelemetry();
        const StatSet &ns = mesh->stats();
        const auto *packets =
            static_cast<const Counter *>(ns.find("packets"));
        const auto *hops =
            static_cast<const Counter *>(ns.find("flit_hops"));
        auto hopProbe = [hops]() {
            return static_cast<double>(hops->value());
        };
        t.addRate("net.packets", [packets]() {
            return static_cast<double>(packets->value());
        });
        t.addRate("net.flit_hops", hopProbe);
        t.addRatio("net.util", hopProbe, [this]() {
            return static_cast<double>(_eq.now()) * _cfg.numNodes;
        });
        t.addGauge("net.peak_queue", [mesh]() {
            return static_cast<double>(mesh->takeWindowPeakDepth());
        });
        t.addSummary("net_hotspots", [this, mesh](JsonWriter &w) {
            const auto *telem = mesh->meshTelemetry();
            std::vector<std::pair<std::uint64_t, unsigned>> load;
            load.reserve(telem->flitHops.size());
            for (unsigned r = 0; r < telem->flitHops.size(); ++r)
                load.emplace_back(telem->flitHops[r], r);
            std::sort(load.begin(), load.end(), [](auto &a, auto &b) {
                return a.first != b.first ? a.first > b.first
                                          : a.second < b.second;
            });
            load.resize(std::min<std::size_t>(8, load.size()));
            w.array();
            for (const auto &[hops, r] : load) {
                w.object().field("router", r).field("x", _topo->xOf(r));
                w.field("y", _topo->yOf(r)).field("flit_hops", hops).end();
            }
            w.end();
        });
    }

    // Parallel-kernel (host) utilization layer, opt-in via
    // cfg.pkTelemetry: these columns describe the *host* execution of a
    // parallel run (barrier waits, serial-tail seconds), so unlike
    // every simulated-machine column above they are not byte-identical
    // across thread counts — and the cross-thread determinism suite
    // byte-compares the default column set. Sampling happens in the
    // serial window tail on the coordinator, where every counter except
    // the (atomic) barrier waits is barrier-ordered and stable.
    if (_numParts > 1 && _cfg.pkTelemetry && _pkStats) {
        ParallelKernelStats *pk = _pkStats.get();
        t.addRate("pk.windows", [pk]() {
            return static_cast<double>(pk->windows);
        });
        t.addRate("pk.coupled_windows", [pk]() {
            return static_cast<double>(pk->coupledWindows);
        });
        t.addRate("pk.serial_tail_s", [pk]() {
            return pk->serialTailSeconds;
        });
        if (auto *mesh = dynamic_cast<MeshNetwork *>(_net.get()))
            t.addRate("pk.xpart_flits", [mesh]() {
                return static_cast<double>(mesh->crossPartitionFlits());
            });
        for (unsigned p = 0; p < _numParts; ++p) {
            t.addRate("pk.part_events." + std::to_string(p),
                      [this, p]() {
                          return static_cast<double>(
                              _partQueues[p]->executedEvents());
                      });
            t.addRate("pk.barrier_wait_s." + std::to_string(p),
                      [pk, p]() { return pk->barrierWaitSeconds(p); });
        }
    }

    // Per-node emulation occupancy detail (cumulative trap cycles per
    // node at write time; 64 CSV columns would drown the time-series).
    t.addSummary("trap_cycles_per_node", [this](JsonWriter &w) {
        auto counterOf = [](const StatSet *set, const char *name) {
            const Stat *s = set ? set->find(name) : nullptr;
            return s ? static_cast<const Counter *>(s)->value()
                     : std::uint64_t{0};
        };
        w.array();
        for (const auto &node : _nodes)
            w.value(counterOf(node->statSet("trap"), "cycles") +
                    counterOf(node->statSet("mem"), "trap_cycles"));
        w.end();
    });

    // Producer-side histogram sinks (the only telemetry cost the hot
    // path ever sees, and only when this function has run).
    Log2Histogram *ws = t.addHistogram(
        "worker_set",
        "worker-set size at RREQ/WREQ pre-dispatch (hw + sw sharers)",
        10);
    Log2Histogram *svc = t.addHistogram(
        "trap_service", "trap service time per overflow (cycles)", 16);
    _wsSink = ws;
    _svcSink = svc;
    for (auto &node : _nodes) {
        node->mem().setTelemetrySinks(ws, svc);
        if (ChipHomeController *ch = node->chipHome())
            ch->setTelemetrySinks(ws, svc);
        node->dispatcher().setServiceTimeSink(svc);
    }
}

std::string
Machine::writeTelemetry(const std::string &csvPath) const
{
    if (!_telemetry)
        fatal("writeTelemetry: telemetry disabled (metricsInterval == 0)");
    std::ofstream csv(csvPath);
    if (!csv)
        fatal("cannot open telemetry CSV '%s'", csvPath.c_str());
    _telemetry->writeCsv(csv);

    const std::string jsonPath = telemetryJsonPathFor(csvPath);
    std::ofstream js(jsonPath);
    if (!js)
        fatal("cannot open telemetry JSON '%s'", jsonPath.c_str());
    _telemetry->writeJson(js);
    return jsonPath;
}

std::string
Machine::writeTxnTrace() const
{
    if (_cfg.txnTraceOut.empty())
        fatal("writeTxnTrace: tracer disabled (txnTraceOut empty)");
    if (!FlightRecorder::instance().txn().writeJsonFile(_cfg.txnTraceOut))
        fatal("cannot open txn trace '%s'", _cfg.txnTraceOut.c_str());
    return _cfg.txnTraceOut;
}

Machine::~Machine()
{
    FlightRecorder &fr = FlightRecorder::instance();
    if (fr.clock() == &_eq)
        fr.setClock(nullptr);
}

void
Machine::spawnOn(NodeId node_id, Processor::ThreadFn fn)
{
    _nodes.at(node_id)->processor().spawn(std::move(fn));
    ++_spawned;
}

RunResult
Machine::run(Tick max_cycles)
{
    PROF_SCOPE("machine.run");
    RunResult result;
    if (_spawned == 0)
        fatal("Machine::run with no threads spawned");

    const auto host_start = std::chrono::steady_clock::now();

    // Completion, one slot per partition (serial is P = 1). A thread
    // only ever retires on its own partition's queue, so each slot has
    // a single writer, read between bursts or inside the window barrier
    // (padded so neighbouring partitions don't false-share).
    struct alignas(64) Retired
    {
        std::uint64_t count = 0;
        Tick last = 0; ///< tick of the partition's latest retire
    };
    std::vector<Retired> retired(_numParts);
    for (unsigned i = 0; i < _nodes.size(); ++i) {
        Retired *slot = &retired[_partOf[i]];
        const EventQueue *q = _partQueues[_partOf[i]];
        _nodes[i]->processor().setOnThreadDone([slot, q]() {
            ++slot->count;
            slot->last = q->now();
        });
    }
    for (auto &node : _nodes)
        node->processor().start();

    if (_telemetry)
        _telemetry->start([this]() { return allThreadsDone(); });

    // The watchdog polls total ops; resolve the counters up front
    // instead of re-finding them by name each poll.
    std::vector<const Counter *> op_counters;
    op_counters.reserve(_nodes.size());
    for (const auto &node : _nodes)
        op_counters.push_back(static_cast<const Counter *>(
            node->statSet("proc")->find("ops")));
    auto progress = [&op_counters]() {
        std::uint64_t ops = 0;
        for (const Counter *c : op_counters)
            ops += c->value();
        return ops;
    };

    std::vector<std::uint64_t> base_events(_numParts);
    for (unsigned p = 0; p < _numParts; ++p)
        base_events[p] = _partQueues[p]->executedEvents();

    std::uint64_t last_ops = progress();
    Tick last_progress_tick = 0;
    std::uint64_t polls = 0;
    bool aborted = false;

    // The poll both modes run after every event burst (serial) or
    // window (parallel): completion, the max-cycles abort and the
    // op-count watchdog. Returns false once the threads stop: all
    // retired, or the run hit max_cycles.
    auto poll = [&](Tick now) {
        if (result.completed)
            return false;
        std::uint64_t count = 0;
        Tick last = 0;
        for (const Retired &r : retired) {
            count += r.count;
            last = std::max(last, r.last);
        }
        if (count == _spawned) {
            result.completed = true;
            result.cycles = last;
            return false;
        }
        if (max_cycles && now > max_cycles) {
            aborted = true;
            result.cycles = now;
            return false;
        }
        // The watchdog samples progress every pollStride polls. It can
        // see the last completed op one stride late and the expired
        // limit one more stride late, so the panic trips within two
        // strides (128 bursts of 512 events serially, 128 windows in
        // parallel) after watchdogCycles without progress, never early.
        if (++polls % pollStride == 0) {
            const std::uint64_t ops = progress();
            if (ops != last_ops) {
                last_ops = ops;
                last_progress_tick = now;
            } else if (now - last_progress_tick > _cfg.watchdogCycles) {
                dumpStats(std::cerr);
                panic("machine: no memory operation completed for %llu "
                      "cycles — livelock/deadlock at tick %llu",
                      (unsigned long long)_cfg.watchdogCycles,
                      (unsigned long long)now);
            }
        }
        return true;
    };

    // Once the threads finish, both modes drain in-flight protocol
    // traffic (write-backs, final acks) so the coherence monitor sees a
    // quiescent machine.
    if (_numParts == 1) {
        // runBurst returns short only when the queue drained.
        for (bool more = true; more;) {
            const bool drained = _eq.runBurst(512) < 512;
            more = poll(_eq.now()) && !drained;
        }
        if (result.completed)
            _eq.run();
    } else {
        runWindows([&](Tick t) { return poll(t) || result.completed; });
    }

    for (unsigned p = 0; p < _numParts; ++p) {
        const std::uint64_t n =
            _partQueues[p]->executedEvents() - base_events[p];
        result.events += n;
        if (_pkStats)
            _pkStats->parts[p].events += n;
    }
    result.hostSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - host_start)
                             .count();

    // Hooks must not dangle past this call.
    for (auto &node : _nodes)
        node->processor().setOnThreadDone(nullptr);

    if (!result.completed && !aborted) {
        unsigned live = 0;
        for (auto &nd : _nodes)
            live += nd->processor().liveThreads();
        panic("machine: event queue drained with %u live "
              "threads — deadlock", live);
    }

    // Close the final (partial) telemetry window so window deltas sum
    // exactly to the run totals, drain traffic included.
    if (result.completed && _telemetry)
        _telemetry->finish();
    return result;
}

void
Machine::runWindows(std::function<bool(Tick)> on_window)
{
    // Swap the shared telemetry histogram sinks for per-partition
    // shadows; bucket increments commute, so merging them back after the
    // run reproduces the serial histograms exactly.
    std::vector<Log2Histogram> ws_shadow, svc_shadow;
    if (_wsSink) {
        ws_shadow.assign(_numParts, Log2Histogram(_wsSink->numBuckets()));
        svc_shadow.assign(_numParts,
                          Log2Histogram(_svcSink->numBuckets()));
        for (unsigned i = 0; i < _nodes.size(); ++i) {
            const unsigned p = _partOf[i];
            _nodes[i]->mem().setTelemetrySinks(&ws_shadow[p],
                                               &svc_shadow[p]);
            if (ChipHomeController *ch = _nodes[i]->chipHome())
                ch->setTelemetrySinks(&ws_shadow[p], &svc_shadow[p]);
            _nodes[i]->dispatcher().setServiceTimeSink(&svc_shadow[p]);
        }
    }

    // Latency stamps defer into per-partition buffers. Every pollStride
    // windows, and once after the run, the coordinator replays the ones
    // dated up to the retired window into the main tracker, so the
    // buffers hold about a stride of stamps however long the run is
    // (LatencyTracker::DeferredStamp has the exactness argument).
    std::vector<std::vector<LatencyTracker::DeferredStamp>> lat_bufs(
        _numParts);

    ParallelKernel::Hooks hooks;
    hooks.threadInit = [&](unsigned p) {
        // Every partition's thread-local recorder stamps off its own
        // partition clock and defers latency hooks — partition 0 (the
        // caller's recorder, the one holding the run's state) included,
        // so the replay sees one uniformly ordered stream.
        FlightRecorder &fr = FlightRecorder::instance();
        fr.setClock(_partQueues[p]);
        fr.latency().deferTo(&lat_bufs[p], _partQueues[p]);
    };
    std::uint64_t windows = 0;
    hooks.onWindow = [&](Tick t) {
        if (++windows % pollStride == 0)
            FlightRecorder::instance().latency().replayThrough(t, lat_bufs);
        return on_window(t);
    };

    auto *mesh = dynamic_cast<MeshNetwork *>(_net.get());
    // Hand the kernel the stats sink only when someone will consume it
    // (pk.* telemetry or the host profiler): the timed barrier path
    // costs two clock reads per arrival per worker per window, which is
    // measurable on the thousands of tiny windows a run executes.
    const bool time_barriers = _cfg.pkTelemetry || HostProfiler::enabled();
    ParallelKernel kernel(_partQueues, mesh, _topo->minHopLookahead(),
                          time_barriers ? _pkStats.get() : nullptr);
    kernel.run(hooks);

    // Back on the caller thread, workers joined: return the recorder to
    // direct mode and replay the stamps still buffered.
    FlightRecorder &fr = FlightRecorder::instance();
    fr.setClock(&_eq);
    fr.latency().deferTo(nullptr, nullptr);
    fr.latency().replayThrough(maxTick, lat_bufs);

    // Fold the per-partition histogram shadows back into the shared
    // sinks and repoint the producers at them.
    if (_wsSink) {
        for (unsigned p = 0; p < _numParts; ++p) {
            _wsSink->merge(ws_shadow[p]);
            _svcSink->merge(svc_shadow[p]);
        }
        for (auto &node : _nodes) {
            node->mem().setTelemetrySinks(_wsSink, _svcSink);
            if (ChipHomeController *ch = node->chipHome())
                ch->setTelemetrySinks(_wsSink, _svcSink);
            node->dispatcher().setServiceTimeSink(_svcSink);
        }
    }
}

bool
Machine::allThreadsDone() const
{
    for (const auto &node : _nodes)
        if (!node->processor().allDone())
            return false;
    return true;
}

std::uint64_t
Machine::sumCounter(std::string_view component,
                    std::string_view name) const
{
    std::uint64_t total = 0;
    for (const auto &node : _nodes) {
        const StatSet *set = node->statSet(component);
        if (!set)
            continue;
        if (const Stat *stat = set->find(name))
            total += static_cast<const Counter *>(stat)->value();
    }
    return total;
}

double
Machine::meanAccumulator(std::string_view component,
                         std::string_view name) const
{
    double sum = 0.0;
    std::uint64_t count = 0;
    for (const auto &node : _nodes) {
        const StatSet *set = node->statSet(component);
        if (!set)
            continue;
        if (const Stat *stat = set->find(name)) {
            const auto *acc = static_cast<const Accumulator *>(stat);
            sum += acc->sum();
            count += acc->count();
        }
    }
    return count ? sum / static_cast<double>(count) : 0.0;
}

double
Machine::overflowFraction() const
{
    const std::uint64_t traps = sumCounter("mem", "read_traps") +
                                sumCounter("mem", "write_traps");
    const std::uint64_t reqs =
        sumCounter("mem", "rreq") + sumCounter("mem", "wreq");
    return reqs ? static_cast<double>(traps) / reqs : 0.0;
}

namespace
{

/** Per-node components dumped by dumpStats and dumpStatsJson. */
constexpr const char *statComponents[] = {"proc", "cache", "mem",
                                          "chip", "ipi",   "handler",
                                          "trap"};

} // namespace

void
Machine::dumpStats(std::ostream &os) const
{
    for (const auto &node : _nodes)
        for (const char *comp : statComponents)
            if (const StatSet *set = node->statSet(comp))
                set->dump(os);
    if (const StatSet *net = _net->statSet())
        net->dump(os);
}

void
Machine::dumpStatsJson(std::ostream &os, Tick cycles,
                       const RunResult *run) const
{
    FlightRecorder &fr = FlightRecorder::instance();
    const double m = overflowFraction();
    const double ts = static_cast<double>(_cfg.protocol.softwareLatency);

    JsonWriter w(os);
    // A breaking change bumps both the string and the integer
    // (docs/OBSERVABILITY.md §6).
    w.object(2).field("schema", "limitless-stats-v3");
    w.field("schema_version", 3).field("protocol", _cfg.protocol.name());
    w.field("nodes", _cfg.numNodes).field("seed", _cfg.seed);
    w.field("cycles", cycles);
    // The paper's model terms: T = Th + m * Ts.
    w.key("model").object().field("m", m).field("ts", ts);
    w.field("m_ts", m * ts).end();
    w.key("topology").object().field("kind", _topo->name());
    w.field("width", _topo->width()).field("height", _topo->height());
    w.field("cluster_size", _cfg.topology.clusterSize);
    w.field("average_hops", _topo->averageHops());
    if (_amap.hier())
        w.field("hier", true);
    w.end();
    if (run) {
        // The one host-dependent subtree (schema_version 2): everything
        // under "host" varies with the machine running the simulator —
        // wall time, throughput, thread scheduling, profiler output —
        // while everything outside it is deterministic for a given
        // config. Consumers (limitless-perfdiff, the parallel-smoke CI
        // diff) compare deterministic fields exactly by skipping this
        // subtree, with no field-name grepping.
        w.key("host").object(4).field("seconds", run->hostSeconds);
        w.field("events", run->events);
        w.field("events_per_sec", run->eventsPerSecond());
        w.field("hostname", hostName()).field("peak_rss_kb", hostPeakRssKb());
        // windows == 0 means the kernel ran without the stats sink
        // (neither pk telemetry nor the profiler wanted it), so there
        // is no utilization data to report.
        if (_pkStats && _pkStats->windows > 0) {
            const ParallelKernelStats &pk = *_pkStats;
            const auto *mesh =
                dynamic_cast<const MeshNetwork *>(_net.get());
            w.key("parallel_kernel").object(6);
            w.field("sim_threads", pk.partitions);
            w.field("lookahead", pk.lookahead).field("windows", pk.windows);
            w.field("coupled_windows", pk.coupledWindows);
            w.field("serial_tail_seconds", pk.serialTailSeconds);
            w.field("run_seconds", pk.runSeconds);
            w.field("serial_tail_fraction",
                    pk.runSeconds > 0.0 ? pk.serialTailSeconds / pk.runSeconds
                                        : 0.0);
            w.field("cross_partition_flits",
                    mesh ? mesh->crossPartitionFlits() : 0);
            w.key("partitions").array();
            for (unsigned p = 0; p < pk.partitions; ++p) {
                w.object().field("id", p).field("events", pk.parts[p].events);
                w.field("barrier_wait_seconds", pk.barrierWaitSeconds(p));
                w.end();
            }
            w.end().end();
        }
        if (HostProfiler::enabled())
            HostProfiler::writeJson(w.key("host_profile"), 6);
        w.end();
    }
    fr.latency().snapshot().writeJson(w.key("phases"), _amap.hier());
    // Remote misses injected but never completed. A quiescent run ends
    // at zero; nonzero means dropped completions (satellite of the
    // latency tracker's silent-drop fix — exported so sweeps can assert).
    w.field("unfinished_remote", fr.latency().inFlight());
    if (const TxnTracer &txn = fr.txn(); txn.enabled()) {
        w.key("txn").object().field("completed", txn.completedCount());
        w.field("abandoned", txn.abandonedCount());
        w.field("open", txn.openCount()).end();
        txn.quantiles().writeJson(w.key("phase_quantiles"));
    }

    // Machine-wide aggregates: counters summed, accumulators merged with
    // the parallel-variance formula, distributions reduced to their
    // sample count (full counts live in nodes_detail).
    w.key("aggregate").object(4);
    for (const char *comp : statComponents) {
        const StatSet *shape = nullptr;
        for (const auto &node : _nodes)
            if ((shape = node->statSet(comp)))
                break;
        if (!shape)
            continue;
        w.key(comp).object();
        for (const auto &stat : shape->all()) {
            w.key(stat->name());
            if (dynamic_cast<const Counter *>(stat.get())) {
                w.value(sumCounter(comp, stat->name()));
                continue;
            }
            Accumulator agg("aggregate", "merged across nodes");
            std::uint64_t count = 0;
            for (const auto &node : _nodes) {
                const StatSet *set = node->statSet(comp);
                const Stat *s = set ? set->find(stat->name()) : nullptr;
                if (const auto *acc = dynamic_cast<const Accumulator *>(s))
                    agg.merge(*acc);
                else if (const auto *d =
                             dynamic_cast<const Distribution *>(s))
                    count += d->count();
            }
            if (dynamic_cast<const Accumulator *>(stat.get()))
                agg.json(w);
            else
                w.object().field("count", count).end();
        }
        w.end();
    }
    w.end().key("network");
    if (const StatSet *net = _net->statSet())
        net->json(w);
    else
        w.object().end();

    w.key("nodes_detail").array(4);
    for (unsigned i = 0; i < _nodes.size(); ++i) {
        w.object().field("node", i);
        for (const char *comp : statComponents)
            if (const StatSet *set = _nodes[i]->statSet(comp))
                set->json(w.key(comp));
        w.end();
    }
    w.end().end();
    os << "\n";
}

} // namespace limitless
