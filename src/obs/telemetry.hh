/**
 * @file
 * Time-series telemetry: a pull-based metrics subsystem sampled on a
 * configurable simulated-cycle interval.
 *
 * The flight recorder (PR 1) answers "what happened to this transaction";
 * end-of-run stats answer "how much in total". Telemetry adds the time
 * dimension the paper's graceful-degradation argument rests on: how the
 * overflow fraction m(t), trap backlog, and worker sets *evolve* during a
 * run (Section 4 proposes exactly this kind of worker-set profiling as a
 * LimitLESS software extension on the Trap-Always meta-state).
 *
 * Design constraints:
 *  - Pull-based gauges: nothing is computed between samples, so an idle
 *    metric costs zero on the simulation hot path. Producers only expose
 *    cheap cumulative counters or O(nodes) probes evaluated once per
 *    window.
 *  - Event-driven: one EventPriority::stats event per interval, after
 *    every protocol event of its tick, so sampling never perturbs
 *    protocol event order or simulated timing.
 *  - ParallelRunner-safe: a Telemetry instance belongs to one Machine and
 *    touches only that machine's EventQueue; per-run output files are
 *    derived from per-run labels by the harness.
 *
 * Output is a versioned CSV (one row per window) plus a JSON sidecar
 * carrying histograms, summaries (e.g. mesh hotspot top-k), and run
 * metadata. See docs/OBSERVABILITY.md for the file formats and the
 * schema_version bump policy.
 */

#ifndef LIMITLESS_OBS_TELEMETRY_HH
#define LIMITLESS_OBS_TELEMETRY_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace limitless
{

class JsonWriter;

/**
 * Standalone power-of-two bucketed histogram for telemetry sinks.
 *
 * Bucket 0 counts values in [0, 2), bucket i >= 1 counts
 * [2^i, 2^(i+1)), and the last bucket absorbs everything at or above
 * its lower bound (the overflow bucket). It exposes the bucket geometry
 * (for labels and tests) and supports merging, so per-job histograms
 * from ParallelRunner fan-outs can be folded together.
 */
class Log2Histogram
{
  public:
    explicit Log2Histogram(unsigned buckets = 16) : _buckets(buckets, 0) {}

    void
    sample(std::uint64_t v)
    {
        ++_buckets[bucketFor(v, _buckets.size())];
        ++_count;
    }

    /** Bucket index value @p v falls into for an @p n -bucket histogram. */
    static unsigned
    bucketFor(std::uint64_t v, std::size_t n)
    {
        unsigned b = 0;
        while (v > 1 && b + 1 < n) {
            v >>= 1;
            ++b;
        }
        return b;
    }

    /** Smallest value counted by bucket @p i (0 for bucket 0). */
    static std::uint64_t
    lowerBound(unsigned i)
    {
        return i == 0 ? 0 : std::uint64_t{1} << i;
    }

    /**
     * Largest value counted by bucket @p i, were it not the overflow
     * bucket; the final bucket actually extends to 2^64-1.
     */
    static std::uint64_t
    upperBound(unsigned i)
    {
        return (std::uint64_t{1} << (i + 1)) - 1;
    }

    /** Human-readable bucket range, e.g. "0-1", "4-7", "256+" (last). */
    std::string label(unsigned i) const;

    /** Fold another histogram's counts into this one (same bucket count
     *  required; used to merge per-job results from ParallelRunner). */
    void merge(const Log2Histogram &other);

    std::uint64_t count() const { return _count; }
    std::uint64_t bucket(unsigned i) const { return _buckets.at(i); }
    unsigned numBuckets() const { return _buckets.size(); }

    /** Index of the overflow bucket. */
    unsigned overflowBucket() const { return _buckets.size() - 1; }

    void
    reset()
    {
        std::fill(_buckets.begin(), _buckets.end(), 0);
        _count = 0;
    }

  private:
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _count = 0;
};

/**
 * Interval-sampled metrics registry for one Machine.
 *
 * Three column kinds, all pull-based:
 *  - gauge: the probe's value at the sample instant (queue depth,
 *    pointer-array occupancy);
 *  - rate:  per-window delta of a cumulative probe (misses this window);
 *  - ratio: delta(numerator) / delta(denominator) of two cumulative
 *    probes — the windowed overflow fraction m is ratio(traps, requests),
 *    and windowed ratios weighted by their denominator deltas recover the
 *    run-level value exactly (the cross-check test relies on this).
 *
 * Histograms registered here are owned by the Telemetry object and fed by
 * producer-side sinks (a raw pointer handed to the instrumented
 * component); they accumulate over the whole run, not per window.
 */
class Telemetry
{
  public:
    /** Bumped when the CSV column contract or JSON layout changes; see
     *  docs/OBSERVABILITY.md for the bump policy. */
    static constexpr int schemaVersion = 1;
    static const char *csvSchema() { return "limitless-telemetry-csv-v1"; }
    static const char *jsonSchema() { return "limitless-telemetry-v1"; }

    using Probe = std::function<double()>;

    Telemetry(EventQueue &eq, Tick interval)
        : _eq(eq), _interval(interval)
    {}

    Telemetry(const Telemetry &) = delete;
    Telemetry &operator=(const Telemetry &) = delete;

    /** Absolute value read at each sample instant. */
    void addGauge(std::string name, Probe probe);

    /** Per-window delta of a cumulative probe. */
    void addRate(std::string name, Probe probe);

    /** Per-window delta(num)/delta(den); 0 when the denominator did not
     *  move. */
    void addRatio(std::string name, Probe num, Probe den);

    /** Register an owned histogram; producers sample via the returned
     *  pointer (stable for the Telemetry object's lifetime). */
    Log2Histogram *addHistogram(std::string name, std::string desc,
                                unsigned buckets = 16);

    /** Attach a free-form JSON value emitted under "summaries".<name> in
     *  the sidecar (evaluated at write time — e.g. hotspot top-k); the
     *  callback writes exactly one value. */
    void addSummary(std::string name,
                    std::function<void(JsonWriter &)> emit);

    /** Key/value run metadata for the JSON sidecar. */
    void setMeta(std::string key, std::string value);

    /**
     * Begin interval sampling. The @p done predicate is checked *after*
     * each sample, so the final full window is recorded and the event
     * queue is not kept alive past the run.
     */
    void start(std::function<bool()> done);

    /**
     * Record the final partial window (post-done drain activity included)
     * so window deltas sum exactly to run totals. Call once after the
     * event loop finishes; a run shorter than one interval yields its
     * single window here.
     */
    void finish();

    Tick interval() const { return _interval; }
    std::size_t windows() const { return _ticks.size(); }
    std::size_t numColumns() const { return _columns.size(); }
    const std::string &columnName(std::size_t i) const
    {
        return _columns.at(i).name;
    }

    /** Recorded per-window values for one column (by exact name). */
    const std::vector<double> &values(const std::string &name) const;

    /** Registered histogram by name; null when absent. */
    const Log2Histogram *histogram(const std::string &name) const;
    const std::vector<Tick> &ticks() const { return _ticks; }

    /** CSV time-series: "# schema:" line, header row, one row/window. */
    void writeCsv(std::ostream &os) const;

    /** JSON sidecar: schema, interval, columns, histograms, summaries. */
    void writeJson(std::ostream &os) const;

  private:
    enum class Kind { gauge, rate, ratio };

    struct Column
    {
        std::string name;
        Kind kind;
        Probe probe;
        Probe denom;     // ratio only
        double last = 0.0;
        double lastDen = 0.0;
        std::vector<double> values;
    };

    struct NamedHistogram
    {
        std::string name;
        std::string desc;
        std::unique_ptr<Log2Histogram> hist;
    };

    struct Summary
    {
        std::string name;
        std::function<void(JsonWriter &)> emit;
    };

    void prime();
    void sampleWindow();
    void scheduleNext();

    EventQueue &_eq;
    Tick _interval;
    bool _running = false;
    bool _primed = false;
    Tick _lastSampleTick = 0;
    std::function<bool()> _done;
    std::vector<Column> _columns;
    std::vector<Tick> _ticks;
    std::vector<NamedHistogram> _histograms;
    std::vector<Summary> _summaries;
    std::vector<std::pair<std::string, std::string>> _meta;
};

/** "foo.csv" -> "foo.json"; no ".csv" suffix -> append ".json". */
std::string telemetryJsonPathFor(const std::string &csvPath);

} // namespace limitless

#endif // LIMITLESS_OBS_TELEMETRY_HH
