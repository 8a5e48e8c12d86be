#include "obs/latency_tracker.hh"

#include <algorithm>
#include <tuple>

#include "obs/json.hh"
#include "sim/event_queue.hh"

namespace limitless
{

namespace
{
/// Shorthand for the stamp kinds the hooks build and apply() reads.
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
LatencyTracker::note(const DeferredStamp &s)
{
    if (_deferBuf)
        _deferBuf->push_back(s);
    else
        apply(s);
}

void
LatencyTracker::onInject(Tick now, NodeId requester, Addr line, bool write)
{
    note({now, line, write, requester, Kind::inject});
}

void
LatencyTracker::onHomeArrival(Tick now, NodeId requester, Addr line)
{
    note({now, line, 0, requester, Kind::homeArrival});
}

void
LatencyTracker::onTrap(NodeId requester, Addr line, Tick cycles)
{
    // The one hook without a caller-supplied tick: a deferred stamp
    // takes the deferring partition's clock so the sort interleaves it
    // exactly where the serial run would have applied it.
    note({_deferClock ? _deferClock->now() : 0, line, cycles, requester,
          Kind::trap});
}

void
LatencyTracker::onInvStart(Tick now, NodeId requester, Addr line)
{
    note({now, line, 0, requester, Kind::invStart});
}

void
LatencyTracker::onInvEnd(Tick now, NodeId requester, Addr line)
{
    note({now, line, 0, requester, Kind::invEnd});
}

void
LatencyTracker::onReplySent(Tick now, NodeId requester, Addr line)
{
    note({now, line, 0, requester, Kind::replySent});
}

void
LatencyTracker::onChipArrival(Tick now, NodeId requester, Addr line)
{
    note({now, line, 0, requester, Kind::chipArrival});
}

void
LatencyTracker::onParentForward(Tick now, NodeId requester, Addr line,
                                NodeId chip_node)
{
    note({now, line, chip_node, requester, Kind::parentForward});
}

void
LatencyTracker::onParentConsumed(Tick now, NodeId chip_node, Addr line)
{
    note({now, line, 0, chip_node, Kind::parentConsumed});
}

void
LatencyTracker::onComplete(Tick now, NodeId requester, Addr line)
{
    note({now, line, 0, requester, Kind::complete});
}

void
LatencyTracker::apply(const DeferredStamp &s)
{
    switch (s.kind) {
      case Kind::inject: {
        Open open;
        open.inject = s.now;
        open.write = s.arg != 0;
        // Overwrite any stale entry: a BUSY-NAKed transaction re-injects
        // under the same key and the retry rounds fold into req_net.
        _open[key(s.node, s.line)] = open;
        return;
      }
      case Kind::chipArrival:
        if (Open *open = find(s.node, s.line))
            open->chipArrival = s.now;
        return;
      case Kind::parentForward:
        if (Open *open = find(s.node, s.line)) {
            open->parentForward = s.now;
            _aliases[key(static_cast<NodeId>(s.arg), s.line)] =
                key(s.node, s.line);
        }
        return;
      case Kind::parentConsumed: {
        auto a = _aliases.find(key(s.node, s.line));
        if (a == _aliases.end())
            return;
        auto it = _open.find(a->second);
        if (it != _open.end() && it->second.pReply &&
            s.now > it->second.pReply)
            it->second.pReplyNet += s.now - it->second.pReply;
        _aliases.erase(a);
        return;
      }
      case Kind::complete:
        complete(s.now, s.node, s.line);
        return;
      default:
        break;
    }
    // The remaining stamps are the home's; while an alias is live they
    // land in the parent-side fields of the requester's record.
    bool parent = false;
    Open *open = resolve(s.node, s.line, parent);
    if (!open)
        return;
    switch (s.kind) {
      case Kind::homeArrival:
        (parent ? open->pArrival : open->homeArrival) = s.now;
        break;
      case Kind::trap:
        (parent ? open->pTrapCycles : open->trapCycles) += s.arg;
        break;
      case Kind::invStart: {
        Tick &start = parent ? open->pInvStart : open->invStart;
        if (!start)
            start = s.now;
        break;
      }
      case Kind::invEnd:
        (parent ? open->pInvEnd : open->invEnd) = s.now;
        break;
      case Kind::replySent:
        (parent ? open->pReply : open->replySent) = s.now;
        break;
      default:
        break;
    }
}

void
LatencyTracker::complete(Tick now, NodeId requester, Addr line)
{
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
LatencyTracker::replayThrough(Tick through,
                              std::vector<std::vector<DeferredStamp>> &bufs)
{
    // Sort the due stamps' (tick, partition, append position) keys:
    // that is the replay order, reached without copying a stamp and
    // without the temporary buffer a stable sort allocates.
    _due.clear();
    std::uint64_t buffered = 0;
    for (std::uint32_t p = 0; p < bufs.size(); ++p) {
        buffered += bufs[p].size();
        for (std::uint32_t i = 0; i < bufs[p].size(); ++i)
            if (bufs[p][i].now <= through)
                _due.push_back({bufs[p][i].now, p, i});
    }
    std::sort(_due.begin(), _due.end(), [](const Due &a, const Due &b) {
        return std::tie(a.now, a.part, a.index) <
               std::tie(b.now, b.part, b.index);
    });
    _replayStats.flushes += 1;
    _replayStats.held += buffered - _due.size();
    _replayStats.peakBuffered =
        std::max(_replayStats.peakBuffered, buffered);

    for (const Due &d : _due)
        apply(bufs[d.part][d.index]);

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
