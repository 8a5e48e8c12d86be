/**
 * @file
 * Statistics package: counters, accumulators, and distributions grouped
 * into named StatSets, in the spirit of gem5's stats framework but
 * deliberately small.
 *
 * Components own a StatSet and create named stats once at construction;
 * the hot path (increment / sample) is a plain integer operation. The
 * machine layer aggregates per-node StatSets by stat name for reporting.
 * A stat's name and description are string literals that it points at,
 * never copies: a 1,024-node machine holds about 41,000 stats.
 */

#ifndef LIMITLESS_STATS_STATS_HH
#define LIMITLESS_STATS_STATS_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace limitless
{

class JsonWriter;

/** Base class for a named statistic. */
class Stat
{
  public:
    /** @p name and @p desc must outlive the stat: pass string literals. */
    Stat(const char *name, const char *desc) : _name(name), _desc(desc) {}

    virtual ~Stat() = default;

    std::string_view name() const { return _name; }
    std::string_view desc() const { return _desc; }

    /** One-line textual dump (without the name column). */
    virtual void print(std::ostream &os) const = 0;

    /** Emit the stat's value(s) as one JSON value. */
    virtual void json(JsonWriter &w) const = 0;

    /** Reset to the just-constructed state. */
    virtual void reset() = 0;

  private:
    const char *_name;
    const char *_desc;
};

/** Monotonic event counter. */
class Counter : public Stat
{
  public:
    using Stat::Stat;

    Counter &operator++() { ++_value; return *this; }
    Counter &operator+=(std::uint64_t n) { _value += n; return *this; }

    std::uint64_t value() const { return _value; }

    void print(std::ostream &os) const override { os << _value; }
    void json(JsonWriter &w) const override;
    void reset() override { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

/** Running min / max / mean / stddev / count over samples (latencies). */
class Accumulator : public Stat
{
  public:
    using Stat::Stat;

    void
    sample(double v)
    {
        ++_count;
        _sum += v;
        _min = std::min(_min, v);
        _max = std::max(_max, v);
        // Welford's online update keeps the variance numerically stable
        // regardless of the magnitude of the samples.
        const double delta = v - _mean;
        _mean += delta / static_cast<double>(_count);
        _m2 += delta * (v - _mean);
    }

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double mean() const { return _count ? _sum / _count : 0.0; }
    double minimum() const { return _count ? _min : 0.0; }
    double maximum() const { return _count ? _max : 0.0; }
    /** Population variance over the samples seen so far. */
    double variance() const { return _count ? _m2 / _count : 0.0; }
    double stddev() const;
    /** Sum of squared deviations (for Chan-style parallel merges). */
    double m2() const { return _m2; }

    /** Fold another accumulator's samples into this one (Chan et al.'s
     *  parallel-variance merge), for cross-node aggregation. */
    void merge(const Accumulator &other);

    void print(std::ostream &os) const override;
    void json(JsonWriter &w) const override;

    void
    reset() override
    {
        _count = 0;
        _sum = 0.0;
        _min = std::numeric_limits<double>::infinity();
        _max = -std::numeric_limits<double>::infinity();
        _mean = 0.0;
        _m2 = 0.0;
    }

  private:
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
    double _mean = 0.0;
    double _m2 = 0.0;
};

/**
 * Exact distribution over a small integer domain [0, max_value] (e.g.
 * worker-set size). Buckets grow to the largest value sampled, not to the
 * domain: a 1024-node machine's per-home worker-set stat would otherwise
 * hold 1025 buckets on every node.
 */
class Distribution : public Stat
{
  public:
    Distribution(const char *name, const char *desc, std::size_t max_value)
        : Stat(name, desc), _maxValue(max_value)
    {}

    /** Count @p v; values above the domain land in its top slot. */
    void
    sample(std::size_t v)
    {
        v = std::min(v, _maxValue);
        if (v >= _counts.size())
            _counts.resize(v + 1, 0);
        ++_counts[v];
        ++_count;
    }

    std::uint64_t count() const { return _count; }

    /** Samples of value @p v; throws std::out_of_range beyond domain(). */
    std::uint64_t
    at(std::size_t v) const
    {
        if (v > _maxValue)
            throw std::out_of_range("Distribution::at");
        return v < _counts.size() ? _counts[v] : 0;
    }

    std::size_t domain() const { return _maxValue + 1; }

    void print(std::ostream &os) const override;
    void json(JsonWriter &w) const override;

    void
    reset() override
    {
        _counts.clear();
        _count = 0;
    }

  private:
    std::size_t _maxValue;
    std::vector<std::uint64_t> _counts; ///< [0, largest value sampled]
    std::uint64_t _count = 0;
};

/**
 * An owning collection of named stats belonging to one component. Names
 * and descriptions are string literals (see Stat).
 */
class StatSet
{
  public:
    explicit StatSet(std::string prefix = "") : _prefix(std::move(prefix)) {}

    StatSet(const StatSet &) = delete;
    StatSet &operator=(const StatSet &) = delete;

    Counter &counter(const char *name, const char *desc);
    Accumulator &accumulator(const char *name, const char *desc);
    Distribution &distribution(const char *name, const char *desc,
                               std::size_t max_value);

    /** Find a stat by (unprefixed) name; nullptr if absent. */
    const Stat *find(std::string_view name) const;
    Stat *find(std::string_view name);

    const std::string &prefix() const { return _prefix; }

    const std::vector<std::unique_ptr<Stat>> &all() const { return _stats; }

    /** Dump every stat, one "prefix.name value # desc" line each. */
    void dump(std::ostream &os) const;

    /** Emit the whole set as one compact JSON object keyed by stat
     *  name. */
    void json(JsonWriter &w) const;

    void resetAll();

  private:
    template <typename T, typename... Args>
    T &add(const char *name, Args &&...args);

    std::string _prefix;
    std::vector<std::unique_ptr<Stat>> _stats;
};

} // namespace limitless

#endif // LIMITLESS_STATS_STATS_HH
