#include "directory/limitless_dir.hh"

#include "obs/flight_recorder.hh"

namespace limitless
{

DirAdd
LimitlessDir::tryAdd(Addr line, NodeId n)
{
    Entry &e = findOrCreate(line);
    if (!isLocal(n))
        return addPointer(e, line, n);
    if (e.localBit)
        return DirAdd::present;
    e.localBit = true;
    return DirAdd::added;
}

bool
LimitlessDir::canAdd(Addr line, NodeId n) const
{
    return isLocal(n) || LimitedDir::canAdd(line, n);
}

bool
LimitlessDir::contains(Addr line, NodeId n) const
{
    if (!isLocal(n))
        return LimitedDir::contains(line, n);
    const Entry *e = find(line);
    return e && e->localBit;
}

void
LimitlessDir::remove(Addr line, NodeId n)
{
    if (!isLocal(n))
        LimitedDir::remove(line, n);
    else if (Entry *e = find(line))
        e->localBit = false;
}

void
LimitlessDir::clear(Addr line)
{
    // Meta state is controlled explicitly by the FSM / trap handler.
    if (Entry *e = find(line)) {
        e->used = 0;
        e->localBit = false;
    }
}

void
LimitlessDir::sharers(Addr line, std::vector<NodeId> &out) const
{
    const Entry *e = find(line);
    if (!e)
        return;
    if (e->localBit)
        out.push_back(_self);
    e->append(out);
}

std::size_t
LimitlessDir::numSharers(Addr line) const
{
    const Entry *e = find(line);
    return e ? e->used + (e->localBit ? 1 : 0) : 0;
}

void
LimitlessDir::occupancy(DirOccupancy &out) const
{
    LimitedDir::occupancy(out);
    // The local bit is one more hardware slot per entry.
    if (!_useLocalBit)
        return;
    out.pointerSlots += _entries.size();
    for (const auto &[line, e] : _entries) {
        (void)line;
        out.pointersUsed += e.localBit ? 1 : 0;
    }
}

MetaState
LimitlessDir::meta(Addr line) const
{
    const Entry *e = find(line);
    return e ? e->meta : MetaState::normal;
}

void
LimitlessDir::setMeta(Addr line, MetaState m)
{
    Entry &e = findOrCreate(line);
    e.prevMeta = e.meta;
    e.meta = m;
    if (e.prevMeta != m) {
        TraceEvent ev = traceEvent("meta", line);
        ev.detail = metaStateName(m);
        FR_RECORD(ev);
    }
}

MetaState
LimitlessDir::prevMeta(Addr line) const
{
    const Entry *e = find(line);
    return e ? e->prevMeta : MetaState::normal;
}

void
LimitlessDir::spillPointers(Addr line, std::vector<NodeId> &out)
{
    Entry *e = find(line);
    if (!e)
        return;
    e->append(out);
    TraceEvent ev = traceEvent("spill", line);
    ev.arg = e->used;
    ev.hasArg = true;
    FR_RECORD(ev);
    e->used = 0;
}

} // namespace limitless
