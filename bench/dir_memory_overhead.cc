/**
 * @file
 * Directory memory-overhead table (the paper's Section 1 motivation):
 * full-map storage grows as O(N) per entry — O(N^2) in total — while
 * limited/LimitLESS entries grow as O(log N). The two-level table
 * composes a per-chip directory over a chip's nodes with an inter-chip
 * directory over the chips, as --hier does. Both tables are written to
 * BENCH_dir_memory_overhead.json. Also measures the actual
 * software-table footprint a LimitLESS machine allocates while running
 * Weather, showing the "memory overhead of a limited directory" claim
 * holds in practice, not just asymptotically.
 */

#include <fstream>
#include <iomanip>
#include <span>

#include "bench_common.hh"
#include "sim/log.hh"
#include "directory/chained_dir.hh"
#include "directory/full_map_dir.hh"
#include "directory/limited_dir.hh"
#include "directory/limitless_dir.hh"

using namespace limitless;
using namespace limitless::bench;

namespace
{

/** One scheme of the comparison and its directory bits per entry. */
struct Scheme
{
    const char *label; ///< column header
    const char *name;  ///< "scheme" in the JSON
    int width;         ///< column width
    std::uint64_t (*bits)(unsigned nodes);
};

const Scheme schemes[] = {
    {"full-map", "full-map", 11,
     [](unsigned n) { return FullMapDir(n).bitsPerEntry(n); }},
    {"Dir4NB", "dir4nb", 9,
     [](unsigned n) { return LimitedDir(4).bitsPerEntry(n); }},
    {"LimitLESS4", "limitless4", 13,
     [](unsigned n) { return LimitlessDir(0, 4, true).bitsPerEntry(n); }},
    {"chained", "chained", 10,
     [](unsigned n) { return ChainedDir().bitsPerEntry(n); }},
};

const unsigned nodeCounts[] = {16, 64, 256, 1024};
const unsigned chipSizes[] = {4, 8, 16};

/** The inter-chip directory's bits per entry: one sharer per chip. */
std::uint64_t
interChipBits(const Scheme &s, unsigned nodes, unsigned chip)
{
    return s.bits((nodes + chip - 1) / chip);
}

/** Total directory storage for a machine of n nodes, 4MB/node, 16B
 *  lines, in megabytes. */
double
totalMb(std::uint64_t bits_per_entry, unsigned n)
{
    const double entries = n * (4.0 * 1024 * 1024 / 16);
    return entries * bits_per_entry / 8.0 / 1024.0 / 1024.0;
}

/** Both bits-per-entry tables under "directory_storage", whose keys
 *  the CI smoke jobs read. */
void
writeJson(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("dir_memory_overhead: cannot write %s", path.c_str());
    JsonWriter w(out);
    const auto list = [&w](std::span<const unsigned> xs, auto f) {
        w.array();
        for (unsigned x : xs)
            w.value(f(x));
        w.end();
    };
    const auto same = [](unsigned x) { return x; };
    w.object(2).field("bench", "dir_memory_overhead");
    w.key("directory_storage").object().key("node_counts");
    list(nodeCounts, same);
    w.key("schemes").array();
    for (const Scheme &s : schemes) {
        w.object().field("scheme", s.name).key("bits_per_entry");
        list(nodeCounts, s.bits);
        w.end();
    }
    w.end().key("hier").object().key("chip_sizes");
    list(chipSizes, same);
    w.key("schemes").array();
    for (const Scheme &s : schemes) {
        w.object().field("scheme", s.name).key("per_chip_bits");
        list(chipSizes, s.bits);
        w.key("inter_chip_bits").array();
        for (unsigned c : chipSizes)
            list(nodeCounts,
                 [&](unsigned n) { return interChipBits(s, n, c); });
        w.end().end();
    }
    w.end().end().end().end();
    out << "\n";
    std::cout << "json: " << path << "\n";
}

} // namespace

int
main()
{
    paperReference(
        "Directory memory overhead (Section 1 / Section 3)",
        "Paper: full-map directory size grows as O(N^2) total; "
        "LimitLESS keeps the memory\noverhead of a limited directory "
        "(O(N) total) while matching full-map performance.");

    std::cout << "\nBits per directory entry (16-byte lines):\n";
    std::cout << "  " << std::setw(7) << "N";
    for (const Scheme &s : schemes)
        std::cout << std::setw(s.width) << s.label;
    std::cout << "\n";
    for (unsigned n : nodeCounts) {
        std::cout << "  " << std::setw(7) << n;
        for (const Scheme &s : schemes)
            std::cout << std::setw(s.width) << s.bits(n);
        std::cout << "\n";
    }

    std::cout << "\nTwo-level (--hier) bits per entry: per-chip directory "
                 "over a chip's nodes |\ninter-chip directory over "
                 "ceil(N / chip) chips at N = 16, 64, 256, 1024:\n";
    for (unsigned c : chipSizes) {
        for (const Scheme &s : schemes) {
            std::cout << "  chip " << std::setw(2) << c << std::setw(12)
                      << s.label << std::setw(5) << s.bits(c) << " |";
            for (unsigned n : nodeCounts)
                std::cout << std::setw(6) << interChipBits(s, n, c);
            std::cout << "\n";
        }
    }

    std::cout << "\nTotal directory storage (4 MB/node, MB):\n";
    std::cout << "  " << std::setw(7) << "N";
    const auto totalled = std::span(schemes).first(3); // all but chained
    for (const Scheme &s : totalled)
        std::cout << std::setw(s.width) << s.label;
    std::cout << "\n";
    for (unsigned n : nodeCounts) {
        std::cout << "  " << std::setw(7) << n << std::fixed
                  << std::setprecision(1);
        for (const Scheme &s : totalled)
            std::cout << std::setw(s.width) << totalMb(s.bits(n), n);
        std::cout << "\n";
    }

    // Live software-table footprint while running Weather at 64 nodes.
    WeatherParams wp = weatherFigureParams();
    wp.iterations = 20; // footprint peaks early; keep this quick
    MachineConfig cfg = alewife64(protocols::limitlessStall(4, 50));
    Machine m(cfg);
    Weather wl(wp);
    wl.install(m);
    if (!m.run().completed)
        fatal("dir_memory_overhead: weather run did not complete");
    wl.verify(m);

    std::size_t peak_entries = 0, footprint = 0;
    for (unsigned i = 0; i < m.numNodes(); ++i) {
        peak_entries += m.node(i).mem().softwareTable().peakEntries();
        footprint += m.node(i).mem().softwareTable().footprintBytes();
    }
    std::cout << "\nLimitLESS software extension while running Weather "
                 "(64 nodes):\n"
              << "  peak spilled entries (machine-wide): " << peak_entries
              << "\n  resident footprint at end: " << footprint
              << " bytes\n"
              << "  (vs " << std::fixed << std::setprecision(1)
              << totalMb(FullMapDir(64).bitsPerEntry(64), 64)
              << " MB a hardware full-map would reserve up front)\n";
    writeJson("BENCH_dir_memory_overhead.json");
    return 0;
}
