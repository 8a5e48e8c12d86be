#include "directory/full_map_dir.hh"

#include <bit>
#include <cassert>

#include "obs/flight_recorder.hh"

namespace limitless
{

std::pair<FullMapDir::Bits &, bool>
FullMapDir::findOrCreate(Addr line)
{
    auto [it, created] = _entries.try_emplace(line, _wordsPerEntry);
    return {it->second, created};
}

DirAdd
FullMapDir::set(Bits &bits, NodeId n) const
{
    assert(n < _numNodes);
    std::uint64_t &word = bits[n / 64];
    const std::uint64_t mask = 1ull << (n % 64);
    if (word & mask)
        return DirAdd::present;
    word |= mask;
    return DirAdd::added;
}

std::size_t
FullMapDir::count(const Bits &bits)
{
    std::size_t n = 0;
    for (std::uint64_t word : bits)
        n += std::popcount(word);
    return n;
}

DirAdd
FullMapDir::tryAdd(Addr line, NodeId n)
{
    return set(findOrCreate(line).first, n);
}

bool
FullMapDir::contains(Addr line, NodeId n) const
{
    auto it = _entries.find(line);
    if (it == _entries.end())
        return false;
    return (it->second[n / 64] >> (n % 64)) & 1;
}

void
FullMapDir::remove(Addr line, NodeId n)
{
    auto it = _entries.find(line);
    if (it == _entries.end())
        return;
    it->second[n / 64] &= ~(1ull << (n % 64));
}

void
FullMapDir::clear(Addr line)
{
    auto it = _entries.find(line);
    if (it == _entries.end())
        return;
    // A clear is the full map's only wholesale transition (ownership
    // change / write fan-out); record how many sharers it dropped.
    TraceEvent ev = dirTraceEvent("dir_clear", _self, line);
    ev.arg = count(it->second);
    ev.hasArg = true;
    FR_RECORD(ev);
    _entries.erase(it);
}

void
FullMapDir::sharers(Addr line, std::vector<NodeId> &out) const
{
    auto it = _entries.find(line);
    if (it == _entries.end())
        return;
    for (unsigned w = 0; w < _wordsPerEntry; ++w) {
        std::uint64_t bits = it->second[w];
        while (bits) {
            const unsigned b = std::countr_zero(bits);
            out.push_back(w * 64 + b);
            bits &= bits - 1;
        }
    }
}

std::size_t
FullMapDir::numSharers(Addr line) const
{
    auto it = _entries.find(line);
    return it == _entries.end() ? 0 : count(it->second);
}

void
FullMapDir::occupancy(DirOccupancy &out) const
{
    out.entries += _entries.size();
    for (const auto &[line, bits] : _entries) {
        (void)line;
        out.pointersUsed += count(bits);
        out.pointerSlots += _numNodes;
    }
}

} // namespace limitless
