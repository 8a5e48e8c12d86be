#include "directory/limited_dir.hh"

#include "obs/flight_recorder.hh"

namespace limitless
{

DirAdd
LimitedDir::addPointer(Entry &e, Addr line, NodeId n)
{
    if (e.holds(n))
        return DirAdd::present;
    if (e.used >= _pointers) {
        TraceEvent ev = traceEvent("ptr_overflow", line);
        ev.src = n;
        ev.arg = e.used;
        ev.hasArg = true;
        FR_RECORD(ev);
        return DirAdd::overflow;
    }
    e.ptr[e.used++] = n;
    return DirAdd::added;
}

DirAdd
LimitedDir::tryAdd(Addr line, NodeId n)
{
    return addPointer(findOrCreate(line), line, n);
}

bool
LimitedDir::canAdd(Addr line, NodeId n) const
{
    const Entry *e = find(line);
    return !e || e->used < _pointers || e->holds(n);
}

bool
LimitedDir::contains(Addr line, NodeId n) const
{
    const Entry *e = find(line);
    return e && e->holds(n);
}

void
LimitedDir::remove(Addr line, NodeId n)
{
    Entry *e = find(line);
    if (!e)
        return;
    for (unsigned i = 0; i < e->used; ++i) {
        if (e->ptr[i] == n) {
            e->ptr[i] = e->ptr[e->used - 1];
            --e->used;
            return;
        }
    }
}

void
LimitedDir::clear(Addr line)
{
    // Keep the entry, whose victim cursor outlives the sharers; just
    // drop the pointers.
    if (Entry *e = find(line))
        e->used = 0;
}

void
LimitedDir::sharers(Addr line, std::vector<NodeId> &out) const
{
    if (const Entry *e = find(line))
        e->append(out);
}

std::size_t
LimitedDir::numSharers(Addr line) const
{
    const Entry *e = find(line);
    return e ? e->used : 0;
}

void
LimitedDir::occupancy(DirOccupancy &out) const
{
    out.entries += _entries.size();
    for (const auto &[line, e] : _entries) {
        (void)line;
        out.pointersUsed += e.used;
        out.pointerSlots += _pointers;
    }
}

NodeId
LimitedDir::pickVictim(Addr line)
{
    Entry *e = find(line);
    assert(e && e->used > 0);
    const NodeId victim = e->ptr[e->nextVictim % e->used];
    e->nextVictim = (e->nextVictim + 1) % _pointers;
    return victim;
}

} // namespace limitless
