/**
 * @file
 * Activity-profile demo: interval-sampled time series over a Weather run
 * render the machine's phase behaviour as ASCII heat strips — memory
 * requests pulse with the barrier episodes, and the limited directory's
 * hot-spot turns the home node's controller into a solid band of work
 * that LimitLESS (one bounded trap burst at the start) avoids. The
 * series are the machine's own telemetry columns.
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "obs/telemetry.hh"
#include "workload/weather.hh"

using namespace limitless;

namespace
{

/**
 * ASCII profile: one row per telemetry column, one character per window
 * (summed down to at most 72 characters), intensity-scaled against
 * the column's own maximum.
 */
void
printProfile(const Telemetry &t, const std::vector<std::string> &columns)
{
    static const char levels[] = " .:-=+*#%@";
    constexpr std::size_t max_columns = 72;
    std::size_t name_w = 0;
    for (const std::string &name : columns)
        name_w = std::max(name_w, name.size());

    for (const std::string &name : columns) {
        const std::vector<double> &values = t.values(name);
        const std::size_t n = values.size();
        const std::size_t cols = std::min(n, max_columns);
        if (!cols)
            continue;
        std::vector<double> buckets(cols, 0.0);
        for (std::size_t i = 0; i < n; ++i)
            buckets[i * cols / n] += values[i];
        double peak = 0;
        for (double b : buckets)
            peak = std::max(peak, b);
        std::cout << "  " << name
                  << std::string(name_w - name.size() + 1, ' ') << "|";
        for (double b : buckets) {
            const int level = peak > 0 ? static_cast<int>(b / peak * 9.0) : 0;
            std::cout << levels[std::clamp(level, 0, 9)];
        }
        std::cout << "| peak " << peak << "/interval\n";
    }
}

void
profileRun(ProtocolParams proto)
{
    MachineConfig cfg;
    cfg.numNodes = 64;
    cfg.protocol = proto;
    cfg.seed = 7;
    cfg.metricsInterval = 200;
    Machine m(cfg);
    WeatherParams wp;
    wp.iterations = 20;
    wp.columnLines = 32;
    Weather wl(wp);
    wl.install(m);

    // Machine-wide request rate, plus the hot home node's controller
    // (node 0 homes the hot variable); LimitLESS trap activity is the
    // default mem.traps column.
    Telemetry &t = *m.telemetry();
    t.addRate("mem.requests", [&m]() {
        return static_cast<double>(m.sumCounter("mem", "requests"));
    });
    t.addRate("node0.requests", [&m]() {
        const auto *c = static_cast<const Counter *>(
            m.node(0).statSet("mem")->find("requests"));
        return static_cast<double>(c->value());
    });
    t.addRate("mem.evictions", [&m]() {
        return static_cast<double>(m.sumCounter("mem", "evictions"));
    });

    const RunResult r = m.run();
    wl.verify(m);
    std::cout << "\n" << proto.name() << " — " << r.cycles
              << " cycles, one column per ~" << t.interval()
              << " cycles:\n";
    printProfile(t, {"mem.requests", "node0.requests", "mem.evictions",
                     "mem.traps"});
}

} // namespace

int
main()
{
    std::cout << "Weather (unoptimized), 64 processors: activity over "
                 "time\n(darker = busier; barrier episodes pulse, the "
                 "Dir4NB hot spot saturates node 0)\n";
    profileRun(protocols::dirNB(4));
    profileRun(protocols::limitlessStall(4, 50));
    profileRun(protocols::fullMap());
    return 0;
}
