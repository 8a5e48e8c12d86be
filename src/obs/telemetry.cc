#include "obs/telemetry.hh"

#include <sstream>

#include "obs/json.hh"
#include "sim/log.hh"

namespace limitless
{

std::string
Log2Histogram::label(unsigned i) const
{
    std::ostringstream os;
    if (i == overflowBucket())
        os << lowerBound(i) << "+";
    else if (lowerBound(i) == upperBound(i))
        os << lowerBound(i);
    else
        os << lowerBound(i) << "-" << upperBound(i);
    return os.str();
}

void
Log2Histogram::merge(const Log2Histogram &other)
{
    if (other._buckets.size() != _buckets.size())
        fatal("Log2Histogram::merge: bucket count mismatch (%zu vs %zu)",
              _buckets.size(), other._buckets.size());
    for (std::size_t i = 0; i < _buckets.size(); ++i)
        _buckets[i] += other._buckets[i];
    _count += other._count;
}

void
Telemetry::addGauge(std::string name, Probe probe)
{
    _columns.push_back(
        Column{std::move(name), Kind::gauge, std::move(probe), {}, 0, 0, {}});
}

void
Telemetry::addRate(std::string name, Probe probe)
{
    _columns.push_back(
        Column{std::move(name), Kind::rate, std::move(probe), {}, 0, 0, {}});
}

void
Telemetry::addRatio(std::string name, Probe num, Probe den)
{
    _columns.push_back(Column{std::move(name), Kind::ratio, std::move(num),
                              std::move(den), 0, 0, {}});
}

Log2Histogram *
Telemetry::addHistogram(std::string name, std::string desc, unsigned buckets)
{
    _histograms.push_back(NamedHistogram{
        std::move(name), std::move(desc),
        std::make_unique<Log2Histogram>(buckets)});
    return _histograms.back().hist.get();
}

void
Telemetry::addSummary(std::string name,
                      std::function<void(JsonWriter &)> emit)
{
    _summaries.push_back(Summary{std::move(name), std::move(emit)});
}

void
Telemetry::setMeta(std::string key, std::string value)
{
    _meta.emplace_back(std::move(key), std::move(value));
}

void
Telemetry::prime()
{
    for (Column &c : _columns) {
        if (c.kind == Kind::gauge)
            continue;
        c.last = c.probe();
        if (c.kind == Kind::ratio)
            c.lastDen = c.denom();
    }
    _lastSampleTick = _eq.now();
    _primed = true;
}

void
Telemetry::sampleWindow()
{
    for (Column &c : _columns) {
        switch (c.kind) {
          case Kind::gauge:
            c.values.push_back(c.probe());
            break;
          case Kind::rate: {
            const double now = c.probe();
            c.values.push_back(now - c.last);
            c.last = now;
            break;
          }
          case Kind::ratio: {
            const double num = c.probe();
            const double den = c.denom();
            const double dnum = num - c.last;
            const double dden = den - c.lastDen;
            c.values.push_back(dden != 0.0 ? dnum / dden : 0.0);
            c.last = num;
            c.lastDen = den;
            break;
          }
        }
    }
    _ticks.push_back(_eq.now());
    _lastSampleTick = _eq.now();
}

void
Telemetry::scheduleNext()
{
    _eq.schedule(_eq.now() + _interval, [this]() {
        if (!_running)
            return;
        sampleWindow();
        // Stop check runs *after* sampling so the run's final full
        // interval is recorded before the queue drains.
        if (_done && _done()) {
            _running = false;
            return;
        }
        scheduleNext();
    }, EventPriority::stats);
}

void
Telemetry::start(std::function<bool()> done)
{
    if (_interval == 0)
        fatal("telemetry: interval must be > 0");
    _done = std::move(done);
    _running = true;
    prime();
    scheduleNext();
}

void
Telemetry::finish()
{
    _running = false;
    if (!_primed)
        return;
    // Drain-tail window: activity after the last interval tick (or a run
    // shorter than one interval) still lands in a final partial window,
    // so rate columns sum exactly to run totals.
    if (_eq.now() > _lastSampleTick || _ticks.empty())
        sampleWindow();
}

const std::vector<double> &
Telemetry::values(const std::string &name) const
{
    for (const Column &c : _columns)
        if (c.name == name)
            return c.values;
    fatal("telemetry: no column named '%s'", name.c_str());
}

const Log2Histogram *
Telemetry::histogram(const std::string &name) const
{
    for (const NamedHistogram &h : _histograms)
        if (h.name == name)
            return h.hist.get();
    return nullptr;
}

void
Telemetry::writeCsv(std::ostream &os) const
{
    os << "# schema: " << csvSchema() << "\n";
    os << "tick";
    for (const Column &c : _columns)
        os << "," << c.name;
    os << "\n";
    for (std::size_t row = 0; row < _ticks.size(); ++row) {
        os << _ticks[row];
        for (const Column &c : _columns)
            os << "," << c.values[row];
        os << "\n";
    }
}

void
Telemetry::writeJson(std::ostream &os) const
{
    JsonWriter w(os);
    w.object(2).field("schema", jsonSchema());
    w.field("schema_version", schemaVersion).field("interval", _interval);
    w.field("windows", _ticks.size()).key("meta").object();
    for (const auto &[key, value] : _meta)
        w.field(key, value);
    w.end().key("columns").array();
    for (const Column &c : _columns)
        w.value(c.name);
    w.end().key("histograms").object(4);
    for (const NamedHistogram &h : _histograms) {
        w.key(h.name).object().field("desc", h.desc);
        w.field("count", h.hist->count()).key("labels").array();
        for (unsigned b = 0; b < h.hist->numBuckets(); ++b)
            w.value(h.hist->label(b));
        w.end().key("buckets").array();
        for (unsigned b = 0; b < h.hist->numBuckets(); ++b)
            w.value(h.hist->bucket(b));
        w.end().end();
    }
    w.end().key("summaries").object(4);
    for (const Summary &s : _summaries)
        s.emit(w.key(s.name));
    w.end().end();
    os << "\n";
}

std::string
telemetryJsonPathFor(const std::string &csvPath)
{
    const std::string suffix = ".csv";
    if (csvPath.size() > suffix.size() &&
        csvPath.compare(csvPath.size() - suffix.size(), suffix.size(),
                        suffix) == 0) {
        return csvPath.substr(0, csvPath.size() - suffix.size()) + ".json";
    }
    return csvPath + ".json";
}

} // namespace limitless
