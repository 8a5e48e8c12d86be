#include "stats/stats.hh"

#include <cmath>
#include <iomanip>
#include <string>

#include "obs/json.hh"
#include "sim/log.hh"

namespace limitless
{

namespace
{

/** {"count":N,"<key>":{"<i>":n_i,...}} over the nonzero counts. */
void
nonzeroCountsJson(JsonWriter &w, std::uint64_t count, const char *key,
                  const std::vector<std::uint64_t> &counts)
{
    w.object(JsonWriter::compact).field("count", count).key(key).object();
    for (std::size_t i = 0; i < counts.size(); ++i)
        if (counts[i] != 0)
            w.field(std::to_string(i), counts[i]);
    w.end().end();
}

} // namespace

double
Accumulator::stddev() const
{
    return std::sqrt(variance());
}

void
Accumulator::merge(const Accumulator &other)
{
    if (other._count == 0)
        return;
    if (_count == 0) {
        _count = other._count;
        _sum = other._sum;
        _min = other._min;
        _max = other._max;
        _mean = other._mean;
        _m2 = other._m2;
        return;
    }
    // Chan et al.'s pairwise update of the sum of squared deviations.
    const double na = static_cast<double>(_count);
    const double nb = static_cast<double>(other._count);
    const double delta = other._mean - _mean;
    const double n = na + nb;
    _mean += delta * nb / n;
    _m2 += other._m2 + delta * delta * na * nb / n;
    _count += other._count;
    _sum += other._sum;
    _min = std::min(_min, other._min);
    _max = std::max(_max, other._max);
}

void
Accumulator::print(std::ostream &os) const
{
    os << "count=" << _count << " mean=" << mean()
       << " stddev=" << stddev() << " min=" << minimum()
       << " max=" << maximum();
}

void
Counter::json(JsonWriter &w) const
{
    w.value(_value);
}

void
Accumulator::json(JsonWriter &w) const
{
    w.object(JsonWriter::compact).field("count", _count);
    w.key("mean").exact(mean()).key("stddev").exact(stddev());
    w.key("min").exact(minimum()).key("max").exact(maximum());
    w.key("sum").exact(sum()).end();
}

void
Distribution::print(std::ostream &os) const
{
    os << "count=" << _count << " [";
    bool first = true;
    for (std::size_t i = 0; i < _counts.size(); ++i) {
        if (_counts[i] == 0)
            continue;
        if (!first)
            os << ", ";
        first = false;
        os << i << ":" << _counts[i];
    }
    os << "]";
}

void
Distribution::json(JsonWriter &w) const
{
    nonzeroCountsJson(w, _count, "values", _counts);
}

template <typename T, typename... Args>
T &
StatSet::add(const char *name, Args &&...args)
{
    if (find(name) != nullptr)
        panic("duplicate stat name '%s' in set '%s'", name,
              _prefix.c_str());
    auto stat = std::make_unique<T>(name, std::forward<Args>(args)...);
    T &ref = *stat;
    _stats.push_back(std::move(stat));
    return ref;
}

Counter &
StatSet::counter(const char *name, const char *desc)
{
    return add<Counter>(name, desc);
}

Accumulator &
StatSet::accumulator(const char *name, const char *desc)
{
    return add<Accumulator>(name, desc);
}

Distribution &
StatSet::distribution(const char *name, const char *desc,
                      std::size_t max_value)
{
    return add<Distribution>(name, desc, max_value);
}

const Stat *
StatSet::find(std::string_view name) const
{
    for (const auto &s : _stats)
        if (s->name() == name)
            return s.get();
    return nullptr;
}

Stat *
StatSet::find(std::string_view name)
{
    return const_cast<Stat *>(
        static_cast<const StatSet *>(this)->find(name));
}

void
StatSet::dump(std::ostream &os) const
{
    for (const auto &s : _stats) {
        std::string label = _prefix;
        if (!label.empty())
            label += '.';
        label += s->name();
        os << std::left << std::setw(44) << label << " ";
        s->print(os);
        os << "   # " << s->desc() << "\n";
    }
}

void
StatSet::json(JsonWriter &w) const
{
    w.object(JsonWriter::compact);
    for (const auto &s : _stats) {
        w.key(s->name());
        s->json(w);
    }
    w.end();
}

void
StatSet::resetAll()
{
    for (auto &s : _stats)
        s->reset();
}

} // namespace limitless
