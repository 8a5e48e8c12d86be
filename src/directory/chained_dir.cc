#include "directory/chained_dir.hh"

#include "directory/directory.hh"
#include "obs/flight_recorder.hh"

namespace limitless
{

void
ChainedDir::push(Addr line, NodeId new_head)
{
    Entry &e = _entries.try_emplace(line).first->second;
    e.head = new_head;
    ++e.length;
    TraceEvent ev = dirTraceEvent("chain_push", _self, line);
    ev.src = new_head;
    ev.arg = e.length;
    ev.hasArg = true;
    FR_RECORD(ev);
}

void
ChainedDir::clear(Addr line)
{
    auto it = _entries.find(line);
    if (it == _entries.end())
        return;
    // Record how long a chain the purge dissolved.
    TraceEvent ev = dirTraceEvent("chain_clear", _self, line);
    ev.arg = it->second.length;
    ev.hasArg = true;
    FR_RECORD(ev);
    _entries.erase(it);
}

} // namespace limitless
