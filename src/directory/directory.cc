#include "directory/directory.hh"

#include "obs/flight_recorder.hh"

namespace limitless
{

TraceEvent
DirectoryScheme::traceEvent(const char *name, Addr line) const
{
    TraceEvent ev;
    ev.ts = FlightRecorder::instance().now();
    ev.name = name;
    ev.cat = EventCat::dir;
    ev.node = _self;
    ev.line = line;
    return ev;
}

} // namespace limitless
