#include "obs/latency_tracker.hh"

#include <algorithm>

#include "obs/json.hh"
#include "sim/event_queue.hh"

namespace limitless
{

namespace
{
/// Shorthand for building a deferred stamp inside the hook bodies.
using Kind = LatencyTracker::DeferredStamp::Kind;
// Parallel runs buffer a window stride of these per partition.
static_assert(sizeof(LatencyTracker::DeferredStamp) == 32,
              "a deferred stamp is four words");
} // namespace

void
LatencyTracker::reset()
{
    _open.clear();
    _aliases.clear();
    _completed = 0;
    _sumReqNet = 0.0;
    _sumHome = 0.0;
    _sumTrap = 0.0;
    _sumInv = 0.0;
    _sumReplyNet = 0.0;
    _sumTotal = 0.0;
    _sumChipHome = 0.0;
    _sumGlobalHome = 0.0;
    _sumInterChipInv = 0.0;
    _replayStats = {};
}

LatencyTracker::Open *
LatencyTracker::find(NodeId requester, Addr line)
{
    auto it = _open.find(key(requester, line));
    return it == _open.end() ? nullptr : &it->second;
}

LatencyTracker::Open *
LatencyTracker::resolve(NodeId node, Addr line, bool &parent_side)
{
    parent_side = false;
    const std::uint64_t k = key(node, line);
    // A live alias means the global home is currently working on this
    // (chip node, line) on some requester's behalf: its stamps are
    // parent-side even when the chip-home node has a record of its own
    // (the requester-is-the-chip-home case).
    if (!_aliases.empty()) {
        auto a = _aliases.find(k);
        if (a != _aliases.end()) {
            auto it = _open.find(a->second);
            if (it != _open.end()) {
                parent_side = true;
                return &it->second;
            }
        }
    }
    auto it = _open.find(k);
    return it == _open.end() ? nullptr : &it->second;
}

void
LatencyTracker::onInject(Tick now, NodeId requester, Addr line, bool write)
{
    if (_deferBuf) {
        _deferBuf->push_back({now, line, write, requester, Kind::inject});
        return;
    }
    Open open;
    open.inject = now;
    open.write = write;
    // Overwrite any stale entry: a BUSY-NAKed transaction re-injects
    // under the same key and the retry rounds fold into req_net.
    _open[key(requester, line)] = open;
}

void
LatencyTracker::onHomeArrival(Tick now, NodeId requester, Addr line)
{
    if (_deferBuf) {
        _deferBuf->push_back({now, line, 0, requester, Kind::homeArrival});
        return;
    }
    bool parent = false;
    if (Open *open = resolve(requester, line, parent)) {
        if (parent)
            open->pArrival = now;
        else
            open->homeArrival = now;
    }
}

void
LatencyTracker::onTrap(NodeId requester, Addr line, Tick cycles)
{
    if (_deferBuf) {
        // The one hook without a caller-supplied tick: stamp it with the
        // deferring partition's clock so the sort interleaves it exactly
        // where the serial run would have applied it.
        _deferBuf->push_back(
            {_deferClock->now(), line, cycles, requester, Kind::trap});
        return;
    }
    bool parent = false;
    if (Open *open = resolve(requester, line, parent)) {
        if (parent)
            open->pTrapCycles += cycles;
        else
            open->trapCycles += cycles;
    }
}

void
LatencyTracker::onInvStart(Tick now, NodeId requester, Addr line)
{
    if (_deferBuf) {
        _deferBuf->push_back({now, line, 0, requester, Kind::invStart});
        return;
    }
    bool parent = false;
    if (Open *open = resolve(requester, line, parent)) {
        if (parent) {
            if (!open->pInvStart)
                open->pInvStart = now;
        } else if (!open->invStart) {
            open->invStart = now;
        }
    }
}

void
LatencyTracker::onInvEnd(Tick now, NodeId requester, Addr line)
{
    if (_deferBuf) {
        _deferBuf->push_back({now, line, 0, requester, Kind::invEnd});
        return;
    }
    bool parent = false;
    if (Open *open = resolve(requester, line, parent)) {
        if (parent)
            open->pInvEnd = now;
        else
            open->invEnd = now;
    }
}

void
LatencyTracker::onReplySent(Tick now, NodeId requester, Addr line)
{
    if (_deferBuf) {
        _deferBuf->push_back({now, line, 0, requester, Kind::replySent});
        return;
    }
    bool parent = false;
    if (Open *open = resolve(requester, line, parent)) {
        if (parent)
            open->pReply = now;
        else
            open->replySent = now;
    }
}

void
LatencyTracker::onChipArrival(Tick now, NodeId requester, Addr line)
{
    if (_deferBuf) {
        _deferBuf->push_back({now, line, 0, requester, Kind::chipArrival});
        return;
    }
    if (Open *open = find(requester, line))
        open->chipArrival = now;
}

void
LatencyTracker::onParentForward(Tick now, NodeId requester, Addr line,
                                NodeId chip_node)
{
    if (_deferBuf) {
        _deferBuf->push_back(
            {now, line, chip_node, requester, Kind::parentForward});
        return;
    }
    if (Open *open = find(requester, line)) {
        open->parentForward = now;
        _aliases[key(chip_node, line)] = key(requester, line);
    }
}

void
LatencyTracker::onParentConsumed(Tick now, NodeId chip_node, Addr line)
{
    if (_deferBuf) {
        _deferBuf->push_back(
            {now, line, 0, chip_node, Kind::parentConsumed});
        return;
    }
    auto a = _aliases.find(key(chip_node, line));
    if (a == _aliases.end())
        return;
    auto it = _open.find(a->second);
    if (it != _open.end() && it->second.pReply && now > it->second.pReply)
        it->second.pReplyNet += now - it->second.pReply;
    _aliases.erase(a);
}

void
LatencyTracker::onComplete(Tick now, NodeId requester, Addr line)
{
    if (_deferBuf) {
        _deferBuf->push_back({now, line, 0, requester, Kind::complete});
        return;
    }
    auto it = _open.find(key(requester, line));
    if (it == _open.end())
        return;
    const Open open = it->second;
    _open.erase(it);

    const double total = static_cast<double>(now - open.inject);
    const bool hier = open.chipArrival || open.parentForward;

    // Raw phase windows from the stamps. Any stamp the transaction never
    // hit (e.g. no invalidations) contributes zero.
    double reqNet = 0.0;
    if (hier) {
        // Both request legs: requester -> chip home, and (when the miss
        // crossed the chip boundary) chip home -> global home.
        if (open.chipArrival > open.inject)
            reqNet = static_cast<double>(open.chipArrival - open.inject);
        if (open.parentForward && open.pArrival > open.parentForward)
            reqNet +=
                static_cast<double>(open.pArrival - open.parentForward);
    } else if (open.homeArrival > open.inject) {
        reqNet = static_cast<double>(open.homeArrival - open.inject);
    }

    double inv = 0.0;
    if (open.invEnd > open.invStart && open.invStart)
        inv = static_cast<double>(open.invEnd - open.invStart);

    double interChipInv = 0.0;
    if (open.pInvEnd > open.pInvStart && open.pInvStart)
        interChipInv = static_cast<double>(open.pInvEnd - open.pInvStart);

    double trap =
        static_cast<double>(open.trapCycles + open.pTrapCycles);

    double replyNet = 0.0;
    if (open.replySent && now > open.replySent)
        replyNet = static_cast<double>(now - open.replySent);
    replyNet += static_cast<double>(open.pReplyNet);

    // The global home's occupancy is the window between its stamps with
    // its inter-chip fan-out and trap charges carved out; the chip home
    // takes the residual so the phases still sum to the total by
    // construction.
    double globalHome = 0.0;
    if (hier && open.pReply && open.pArrival &&
        open.pReply > open.pArrival) {
        globalHome = static_cast<double>(open.pReply - open.pArrival) -
                     interChipInv - static_cast<double>(open.pTrapCycles);
        if (globalHome < 0.0)
            globalHome = 0.0;
    }

    // Home time is the residual, so the phases sum to the total by
    // construction. Windows can overlap (a trap charge delays the reply
    // launch; an invalidation fan-out may span the trap), which would
    // drive the residual negative — fold any deficit back through the
    // softer windows in order so every phase stays non-negative.
    double chipHome = 0.0;
    double home = 0.0;
    const auto bleedAll = [](double deficit, double *phases[],
                             std::size_t n) {
        for (std::size_t i = 0; i < n && deficit > 0.0; ++i) {
            double &phase = *phases[i];
            const double take = phase < deficit ? phase : deficit;
            phase -= take;
            deficit -= take;
        }
    };
    if (hier) {
        chipHome = total - reqNet - globalHome - interChipInv - trap -
                   inv - replyNet;
        if (chipHome < 0.0) {
            double *order[] = {&inv, &interChipInv, &trap, &globalHome,
                               &replyNet, &reqNet};
            bleedAll(-chipHome, order, 6);
            chipHome = 0.0;
        }
        // Legacy five-phase view: home folds both levels, inv folds the
        // inter-chip fan-out, keeping the sum invariant intact.
        home = chipHome + globalHome;
        inv += interChipInv;
    } else {
        home = total - reqNet - trap - inv - replyNet;
        if (home < 0.0) {
            double *order[] = {&inv, &trap, &replyNet, &reqNet};
            bleedAll(-home, order, 4);
            home = 0.0;
        }
    }

    _completed += 1;
    _sumReqNet += reqNet;
    _sumHome += home;
    _sumTrap += trap;
    _sumInv += inv;
    _sumReplyNet += replyNet;
    _sumTotal += total;
    _sumChipHome += chipHome;
    _sumGlobalHome += globalHome;
    _sumInterChipInv += interChipInv;

    if (_sink) {
        PhaseSample sample;
        sample.requester = requester;
        sample.line = line;
        sample.write = open.write;
        sample.inject = open.inject;
        sample.end = now;
        sample.reqNet = reqNet;
        sample.home = home;
        sample.trap = trap;
        sample.inv = inv;
        sample.replyNet = replyNet;
        sample.total = total;
        _sink(sample);
    }
}

void
LatencyTracker::replay(const DeferredStamp &s)
{
    switch (s.kind) {
    case Kind::inject:
        onInject(s.now, s.node, s.line, s.arg != 0);
        break;
    case Kind::homeArrival:
        onHomeArrival(s.now, s.node, s.line);
        break;
    case Kind::chipArrival:
        onChipArrival(s.now, s.node, s.line);
        break;
    case Kind::parentForward:
        onParentForward(s.now, s.node, s.line, static_cast<NodeId>(s.arg));
        break;
    case Kind::parentConsumed:
        onParentConsumed(s.now, s.node, s.line);
        break;
    case Kind::trap:
        onTrap(s.node, s.line, s.arg);
        break;
    case Kind::invStart:
        onInvStart(s.now, s.node, s.line);
        break;
    case Kind::invEnd:
        onInvEnd(s.now, s.node, s.line);
        break;
    case Kind::replySent:
        onReplySent(s.now, s.node, s.line);
        break;
    case Kind::complete:
        onComplete(s.now, s.node, s.line);
        break;
    }
}

void
LatencyTracker::replayThrough(Tick through,
                              std::vector<std::vector<DeferredStamp>> &bufs)
{
    // Point at the due stamps partition-major, each buffer in append
    // order; the stable sort by tick then yields (tick, partition,
    // append-order) without copying a stamp.
    std::vector<const DeferredStamp *> due;
    std::uint64_t buffered = 0;
    for (const auto &buf : bufs) {
        buffered += buf.size();
        for (const DeferredStamp &s : buf)
            if (s.now <= through)
                due.push_back(&s);
    }
    std::stable_sort(due.begin(), due.end(),
                     [](const DeferredStamp *a, const DeferredStamp *b) {
                         return a->now < b->now;
                     });
    _replayStats.flushes += 1;
    _replayStats.held += buffered - due.size();
    _replayStats.peakBuffered =
        std::max(_replayStats.peakBuffered, buffered);

    std::vector<DeferredStamp> *const defer_buf = _deferBuf;
    const EventQueue *const defer_clock = _deferClock;
    deferTo(nullptr, nullptr);
    for (const DeferredStamp *s : due)
        replay(*s);
    deferTo(defer_buf, defer_clock);

    for (auto &buf : bufs)
        std::erase_if(buf, [through](const DeferredStamp &s) {
            return s.now <= through;
        });
}

void
PhaseBreakdown::writeJson(JsonWriter &w, bool hier) const
{
    w.object(JsonWriter::compact).field("count", completed);
    w.key("req_net").exact(reqNet).key("home").exact(home);
    w.key("trap").exact(trap).key("inv").exact(inv);
    w.key("reply_net").exact(replyNet).key("total").exact(total);
    if (hier) {
        w.key("chip_home").exact(chipHome);
        w.key("global_home").exact(globalHome);
        w.key("inter_chip_inv").exact(interChipInv);
    }
    w.end();
}

PhaseBreakdown
LatencyTracker::snapshot() const
{
    PhaseBreakdown phases;
    phases.completed = _completed;
    if (_completed == 0)
        return phases;
    const double n = static_cast<double>(_completed);
    phases.reqNet = _sumReqNet / n;
    phases.home = _sumHome / n;
    phases.trap = _sumTrap / n;
    phases.inv = _sumInv / n;
    phases.replyNet = _sumReplyNet / n;
    phases.total = _sumTotal / n;
    phases.chipHome = _sumChipHome / n;
    phases.globalHome = _sumGlobalHome / n;
    phases.interChipInv = _sumInterChipInv / n;
    return phases;
}

} // namespace limitless
