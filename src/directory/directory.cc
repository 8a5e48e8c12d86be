#include "directory/directory.hh"

#include "obs/flight_recorder.hh"

namespace limitless
{

TraceEvent
dirTraceEvent(const char *name, NodeId home, Addr line)
{
    TraceEvent ev;
    ev.ts = FlightRecorder::instance().now();
    ev.name = name;
    ev.cat = EventCat::dir;
    ev.node = home;
    ev.line = line;
    return ev;
}

} // namespace limitless
