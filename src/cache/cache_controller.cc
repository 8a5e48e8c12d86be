#include "cache/cache_controller.hh"

#include <algorithm>
#include <cassert>
#include <map>
#include <ostream>

#include "obs/flight_recorder.hh"
#include "obs/host_profiler.hh"
#include "sim/log.hh"

namespace limitless
{

CacheController::CacheController(EventQueue &eq, NodeId self,
                                 const AddressMap &amap,
                                 const CacheParams &params,
                                 ProtocolKind protocol, std::uint64_t seed)
    : _eq(eq), _self(self), _amap(amap), _params(params),
      _protocol(protocol), _array(params.cacheBytes, amap),
      _rng(seed ^ (0xcac4eull + self)),
      _statLoads(_stats.counter("loads", "processor load operations")),
      _statStores(_stats.counter("stores", "processor store/rmw ops")),
      _statHits(_stats.counter("hits", "accesses satisfied locally")),
      _statMisses(_stats.counter("misses", "accesses requiring protocol")),
      _statUpgrades(_stats.counter("upgrades", "RO->RW permission misses")),
      _statRepm(_stats.counter("repm", "dirty lines replaced")),
      _statRepc(_stats.counter("repc", "chained clean replacements")),
      _statWupd(_stats.counter("wupd", "update-mode writes issued")),
      _statInvsReceived(_stats.counter("invs", "invalidations received")),
      _statSpuriousInvs(
          _stats.counter("spurious_invs", "INVs for absent lines")),
      _statBusyRetries(_stats.counter("busy_retries", "BUSY nack retries")),
      _statRemoteLatency(_stats.accumulator(
          "remote_latency", "remote miss latency (cycles)")),
      _statLocalMissLatency(_stats.accumulator(
          "local_miss_latency", "local-home miss latency (cycles)"))
{
    _table = &tableFor(protocol);
}

CacheController::IssueClass
CacheController::access(const MemOp &op, Completion done)
{
    bool was_hit = false;
    startAccess(op, std::move(done), was_hit);
    return was_hit ? IssueClass::hit : IssueClass::miss;
}

void
CacheController::applyOp(const MemOp &op, CacheLine &cl, std::uint64_t &out)
{
    std::uint64_t &word = cl.words[_amap.wordOf(op.addr)];
    switch (op.kind) {
      case MemOpKind::load:
        out = word;
        break;
      case MemOpKind::store:
        out = word;
        word = op.value;
        break;
      case MemOpKind::fetchAdd:
        out = word;
        word += op.value;
        break;
      case MemOpKind::swap:
        out = word;
        word = op.value;
        break;
    }
}

void
CacheController::startAccess(const MemOp &op, Completion done,
                             bool &was_hit)
{
    assert(op.addr % bytesPerWord == 0 && "accesses are word aligned");
    const Addr line = _amap.lineAddr(op.addr);
    const bool write = opNeedsWrite(op.kind);

    if (op.kind == MemOpKind::load)
        _statLoads += 1;
    else
        _statStores += 1;

    // Block behind any outstanding transaction touching the same line or
    // the same direct-mapped set (the in-flight fill owns that set). The
    // empty() gate keeps the hash probe off the common hit path.
    if (!_txns.empty()) {
        const std::size_t set = _array.indexOf(line);
        bool blocked = _txns.count(line) > 0;
        if (!blocked) {
            for (const auto &[tline, txn] : _txns) {
                if (_array.indexOf(tline) == set ||
                    (txn.awaitingRepc &&
                     _array.indexOf(txn.repcLine) == set)) {
                    blocked = true;
                    break;
                }
            }
        }
        if (blocked) {
            _waiting.push_back(WaitingAccess{op, std::move(done)});
            was_hit = false;
            return;
        }
    }

    CacheLine *cl = _array.lookup(line);
    const bool hit =
        cl && (write ? cl->state == CacheState::readWrite : cl->valid());
    if (hit) {
        _statHits += 1;
        was_hit = true;
        std::uint64_t value = 0;
        applyOp(op, *cl, value);
        _eq.schedule(_eq.now() + _params.hitLatency,
                     [done = std::move(done), value]() { done(value); },
                     EventPriority::cpu);
        return;
    }

    const bool private_only_remote =
        _protocol == ProtocolKind::privateOnly &&
        _amap.homeOf(line) != _self;

    // Private-only caching (paper Section 5.1 baseline): remote reads
    // are serviced uncached.
    if (private_only_remote && !write) {
        _statMisses += 1;
        was_hit = false;
        Txn txn;
        txn.op = op;
        txn.done = std::move(done);
        txn.uncachedRead = true;
        txn.issued = _eq.now();
        txn.remote = true;
        auto [rit, rok] = _txns.emplace(line, std::move(txn));
        assert(rok);
        startRequest(line, rit->second);
        return;
    }

    // Update-mode lines route writes through the write-update path: the
    // operation is performed at the home and cached copies are refreshed
    // in place (paper Section 6), so no ownership or install is needed.
    // Private-only remote writes use the same mechanism: the operation
    // is performed at the home, nothing is cached.
    if (write && ((_policy && _policy->isUpdateMode(line)) ||
                  private_only_remote)) {
        assert(!(cl && cl->state == CacheState::readWrite) &&
               "update-mode line held exclusively (policy violation)");
        _statMisses += 1;
        _statWupd += 1;
        was_hit = false;
        Txn txn;
        txn.op = op;
        txn.done = std::move(done);
        txn.forWrite = true;
        txn.updateWrite = true;
        txn.issued = _eq.now();
        txn.remote = _amap.homeOf(line) != _self;
        auto [uit, uok] = _txns.emplace(line, std::move(txn));
        assert(uok);
        startRequest(line, uit->second);
        return;
    }

    // Miss (or upgrade). Build the transaction first, then deal with the
    // set's current occupant.
    _statMisses += 1;
    was_hit = false;
    Txn txn;
    txn.op = op;
    txn.done = std::move(done);
    txn.forWrite = write;
    txn.issued = _eq.now();
    txn.remote = _amap.homeOf(line) != _self;

    // Only plain remote RREQ/WREQ misses feed the phase decomposition;
    // the uncached-read and write-update paths have no fill to time.
    if (txn.remote) {
        FlightRecorder &fr = FlightRecorder::instance();
        fr.latency().onInject(_eq.now(), _self, line, write);
        fr.txn().onInject(_eq.now(), _self, line, write);
    }

    const bool upgrade = cl && write && cl->state == CacheState::readOnly;
    if (upgrade)
        _statUpgrades += 1;

    if (!upgrade) {
        CacheLine *victim = _array.atSet(_array.indexOf(line));
        if (victim && victim->valid()) {
            if (victim->state == CacheState::readWrite) {
                _statRepm += 1;
                auto pkt = makeDataPacket(
                    _self, _amap.requestTargetFor(victim->tag, _self),
                    Opcode::REPM, victim->tag, victim->words.data(),
                    _amap.wordsPerLine());
                victim->state = CacheState::invalid;
                _send(std::move(pkt));
            } else if (_protocol == ProtocolKind::chained) {
                // Chained lines may not be dropped silently: ask the home
                // node to unlink (it invalidates the whole chain; see
                // DESIGN.md). The real request is sent after REPC_ACK.
                _statRepc += 1;
                txn.awaitingRepc = true;
                txn.repcLine = victim->tag;
                auto pkt = makeProtocolPacket(
                    _self, _amap.requestTargetFor(victim->tag, _self),
                    Opcode::REPC, victim->tag);
                auto [it, ok] = _txns.emplace(line, std::move(txn));
                assert(ok);
                (void)it;
                _send(std::move(pkt));
                return;
            } else {
                victim->state = CacheState::invalid; // silent clean drop
            }
        }
    }

    auto [it, ok] = _txns.emplace(line, std::move(txn));
    assert(ok);
    startRequest(line, it->second);
}

void
CacheController::startRequest(Addr line, Txn &txn)
{
    if (txn.uncachedRead) {
        _send(makeProtocolPacket(_self, _amap.homeOf(line), Opcode::RUNC,
                                 line));
        return;
    }
    if (txn.updateWrite) {
        auto pkt = makeProtocolPacket(_self, _amap.homeOf(line),
                                      Opcode::WUPD, line);
        pkt->operands.push_back(_amap.wordOf(txn.op.addr));
        pkt->operands.push_back(static_cast<std::uint64_t>(txn.op.kind));
        pkt->operands.push_back(txn.op.value);
        _send(std::move(pkt));
        return;
    }
    const Opcode op = txn.forWrite ? Opcode::WREQ : Opcode::RREQ;
    {
        TraceEvent ev;
        ev.ts = _eq.now();
        ev.name = "miss_req";
        ev.cat = EventCat::cache;
        ev.node = _self;
        ev.line = line;
        ev.op = op;
        ev.hasOp = true;
        ev.src = _self;
        ev.dest = _amap.requestTargetFor(line, _self);
        ev.detail = txn.retries ? "retry" : nullptr;
        FR_RECORD(ev);
    }
    auto pkt = makeProtocolPacket(
        _self, _amap.requestTargetFor(line, _self), op, line);
    FlightRecorder::instance().txn().tagRequest(*pkt, _self);
    _send(std::move(pkt));
}

void
CacheController::handlePacket(PacketPtr pkt)
{
    PROF_SCOPE("cache.dispatch");
    assert(pkt);
    if (Log::enabled("cache"))
        Log::debug(_eq.now(), "cache", "node %u rx %s", _self,
                   describePacket(*pkt).c_str());
    const Addr line = pkt->addr();
    const NodeId src = pkt->src;
    const Opcode op = pkt->opcode;
    CacheCtx ctx{*this, pkt, _array.lookup(line)};
    const auto pre = static_cast<std::uint8_t>(
        ctx.cl ? ctx.cl->state : CacheState::invalid);
    const auto &tr = _table->fire(ctx, pre, op);
    _observed.note(pre, op);
    {
        TraceEvent ev;
        ev.ts = _eq.now();
        ev.name = "transition";
        ev.cat = EventCat::cache;
        ev.node = _self;
        ev.line = line;
        ev.op = op;
        ev.hasOp = true;
        ev.src = src;
        ev.detail = tr.label;
        ev.arg = tr.id;
        ev.hasArg = true;
        FR_RECORD(ev);
    }
}

void
CacheController::completeTxn(Addr line, CacheLine &cl)
{
    auto it = _txns.find(line);
    assert(it != _txns.end());
    Txn txn = std::move(it->second);
    _txns.erase(it);

    std::uint64_t value = 0;
    applyOp(txn.op, cl, value);
    finish(std::move(txn), value);
    drainWaiting();
}

void
CacheController::finish(Txn txn, std::uint64_t value)
{
    const double lat = static_cast<double>(_eq.now() - txn.issued);
    const Addr line = _amap.lineAddr(txn.op.addr);
    if (txn.remote)
        _statRemoteLatency.sample(lat);
    else
        _statLocalMissLatency.sample(lat);
    if (txn.remote && !txn.updateWrite && !txn.uncachedRead)
        FlightRecorder::instance().latency().onComplete(_eq.now(), _self,
                                                        line);
    {
        TraceEvent ev;
        ev.ts = _eq.now();
        ev.name = "miss_done";
        ev.cat = EventCat::cache;
        ev.node = _self;
        ev.line = line;
        ev.detail = txn.remote ? "remote" : "local";
        ev.arg = static_cast<std::uint64_t>(lat);
        ev.hasArg = true;
        FR_RECORD(ev);
    }
    _eq.schedule(_eq.now(),
                 [done = std::move(txn.done), value]() { done(value); },
                 EventPriority::cpu);
}

void
CacheController::noteInvReceived(const Packet &pkt)
{
    _statInvsReceived += 1;
    {
        TraceEvent ev;
        ev.ts = _eq.now();
        ev.name = "inv_rx";
        ev.cat = EventCat::cache;
        ev.node = _self;
        ev.line = pkt.addr();
        ev.src = pkt.src;
        FR_RECORD(ev);
    }
}

void
CacheController::sendAck(NodeId to, Addr line, NodeId chain_next,
                         const Packet *cause)
{
    auto ack = makeProtocolPacket(_self, to, Opcode::ACKC, line);
    ack->operands.push_back(chain_next);
    if (cause) {
        ack->txnId = cause->txnId;
        ack->causeSpan = cause->causeSpan;
    }
    _send(std::move(ack));
}

void
CacheController::handleBusy(const Packet &pkt)
{
    const Addr line = pkt.addr();
    Txn *txn = nullptr;
    bool retry_repc = false;
    Addr main_line = line; ///< the line the transaction is keyed under
    auto it = _txns.find(line);
    if (it != _txns.end() && !it->second.awaitingRepc) {
        txn = &it->second;
    } else {
        for (auto &[tline, t] : _txns) {
            if (t.awaitingRepc && t.repcLine == line) {
                txn = &t;
                retry_repc = true;
                main_line = tline;
                break;
            }
        }
        if (!txn && it != _txns.end())
            txn = &it->second; // BUSY for the main line of a REPC txn
    }
    if (!txn)
        panic("node %u: BUSY for line %#llx with no transaction", _self,
              (unsigned long long)line);

    _statBusyRetries += 1;
    {
        TraceEvent ev;
        ev.ts = _eq.now();
        ev.name = "busy_rx";
        ev.cat = EventCat::cache;
        ev.node = _self;
        ev.line = line;
        ev.src = pkt.src;
        ev.arg = txn->retries;
        ev.hasArg = true;
        FR_RECORD(ev);
    }
    const unsigned shift =
        std::min(txn->retries, _params.retryCapShift);
    const std::uint64_t round = txn->retries;
    ++txn->retries;
    const Tick delay = (_params.retryBase << shift) +
                       _rng.below(_params.retryBase);
    FlightRecorder::instance().txn().onBusyBackoff(_self, main_line,
                                                   _eq.now(), delay,
                                                   round);
    const Addr key = retry_repc ? txn->repcLine : line;
    const bool is_repc = retry_repc;
    // The transaction may not be erased while a retry is pending (only
    // completion erases it, and completion needs the home's response,
    // which the BUSY just denied), so capturing the key is safe.
    _eq.schedule(_eq.now() + delay, [this, key, is_repc]() {
        if (is_repc) {
            for (auto &[tline, t] : _txns) {
                (void)tline;
                if (t.awaitingRepc && t.repcLine == key) {
                    _send(makeProtocolPacket(
                        _self, _amap.requestTargetFor(key, _self),
                        Opcode::REPC, key));
                    return;
                }
            }
            panic("node %u: REPC retry lost its transaction", _self);
        }
        auto it2 = _txns.find(key);
        if (it2 == _txns.end())
            panic("node %u: retry lost its transaction", _self);
        startRequest(key, it2->second);
    }, EventPriority::ctrl);
}

void
CacheController::checkpoint(std::ostream &os) const
{
    os << "cache" << _self << "{";
    // Resident lines, in set order (not the pool's fill order, so the
    // fingerprint does not depend on the order sets were first filled).
    _array.forEachFilledSet([&](std::size_t, const CacheLine &cl) {
        if (!cl.valid())
            return;
        os << "L" << std::hex << cl.tag << std::dec << ":"
           << cacheStateName(cl.state);
        if (cl.chainNext != invalidNode)
            os << ">" << cl.chainNext;
        os << "=";
        for (unsigned w = 0; w < _amap.wordsPerLine(); ++w)
            os << cl.words[w] << (w + 1 < _amap.wordsPerLine() ? "," : "");
        os << ";";
    });
    // Outstanding transactions, in line order. Timing-only fields
    // (retries, issued tick, remote flag) are excluded on purpose.
    std::map<Addr, const Txn *> ordered;
    for (const auto &[line, txn] : _txns)
        ordered.emplace(line, &txn);
    for (const auto &[line, txn] : ordered) {
        os << "T" << std::hex << line << std::dec << ":"
           << static_cast<int>(txn->op.kind) << "@" << std::hex
           << txn->op.addr << std::dec << "v" << txn->op.value
           << (txn->forWrite ? "w" : "") << (txn->updateWrite ? "u" : "")
           << (txn->uncachedRead ? "n" : "");
        if (txn->awaitingRepc)
            os << "r" << std::hex << txn->repcLine << std::dec;
        os << ";";
    }
    for (const WaitingAccess &w : _waiting)
        os << "W" << static_cast<int>(w.op.kind) << "@" << std::hex
           << w.op.addr << std::dec << "v" << w.op.value << ";";
    os << "}";
}

void
CacheController::drainWaiting()
{
    if (_waiting.empty() || _drainScheduled)
        return;
    _drainScheduled = true;
    _eq.schedule(_eq.now(), [this]() {
        _drainScheduled = false;
        Ring<WaitingAccess> pending;
        pending.swap(_waiting);
        for (auto &w : pending) {
            bool was_hit = false;
            startAccess(w.op, std::move(w.done), was_hit);
        }
    }, EventPriority::ctrl);
}

} // namespace limitless
