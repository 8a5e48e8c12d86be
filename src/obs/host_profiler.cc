#include "obs/host_profiler.hh"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <ostream>

#include "obs/json.hh"

namespace limitless
{

std::chrono::steady_clock::time_point HostProfiler::_origin{};

namespace prof_detail
{
namespace
{

/** Global tree registry. Leaked on purpose: thread_local tree
 *  destructors may run after function-local statics are torn down at
 *  process exit, so the registry must outlive every thread. */
struct Registry
{
    std::mutex mu;
    std::vector<ProfTree *> live;
    ProfTree retired{/*registered=*/false};
};

Registry &
registry()
{
    static Registry *r = new Registry;
    return *r;
}

/** Fold @p src (and its subtree) into @p dstNode of @p dst. Addition
 *  commutes, so the aggregate is independent of merge order. */
void
mergeInto(ProfTree &dst, ProfNode *dstNode, const ProfNode *src)
{
    for (const ProfNode *kid : src->kids) {
        ProfNode *d = dst.child(dstNode, kid->name);
        d->count += kid->count;
        d->wallNs += kid->wallNs;
        mergeInto(dst, d, kid);
    }
}

void
flatten(const ProfNode *node, std::string &path,
        std::vector<HostProfiler::Scope> &out)
{
    for (const ProfNode *kid : node->kids) {
        const std::size_t len = path.size();
        if (!path.empty())
            path += ';';
        path += kid->name;
        std::uint64_t kidsWall = 0;
        for (const ProfNode *g : kid->kids)
            kidsWall += g->wallNs;
        HostProfiler::Scope s;
        s.path = path;
        s.count = kid->count;
        s.wallNs = kid->wallNs;
        s.selfNs = kid->wallNs > kidsWall ? kid->wallNs - kidsWall : 0;
        out.push_back(std::move(s));
        flatten(kid, path, out);
        path.resize(len);
    }
}

} // namespace

ProfTree::ProfTree(bool registered) : registered(registered)
{
    if (!registered)
        return;
    Registry &r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    r.live.push_back(this);
}

ProfTree::~ProfTree()
{
    if (!registered)
        return;
    // Thread exit: retire this thread's counts into the shared
    // aggregate so they survive the join (commutative merge).
    Registry &r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    mergeInto(r.retired, &r.retired.root, &root);
    r.live.erase(std::find(r.live.begin(), r.live.end(), this));
}

ProfNode *
ProfTree::child(ProfNode *parent, const char *name)
{
    for (ProfNode *kid : parent->kids)
        if (kid->name == name || !std::strcmp(kid->name, name))
            return kid;
    ProfNode &n = arena.emplace_back();
    n.name = name;
    n.parent = parent;
    parent->kids.push_back(&n);
    return &n;
}

void
ProfTree::clear()
{
    arena.clear();
    root.kids.clear();
    root.count = 0;
    root.wallNs = 0;
    cur = &root;
}

ProfTree &
threadTree()
{
    thread_local ProfTree tree;
    return tree;
}

} // namespace prof_detail

void
HostProfiler::enable()
{
    _origin = std::chrono::steady_clock::now();
    _on.store(true, std::memory_order_relaxed);
}

void
HostProfiler::disable()
{
    _on.store(false, std::memory_order_relaxed);
}

void
HostProfiler::reset()
{
    using prof_detail::registry;
    auto &r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    r.retired.clear();
    for (prof_detail::ProfTree *t : r.live)
        t->clear();
}

void
HostProfiler::setSliceSink(SliceSink sink)
{
    _sink.store(sink, std::memory_order_relaxed);
}

std::uint64_t
HostProfiler::nowNs()
{
    if (!enabled())
        return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - _origin)
            .count());
}

std::vector<HostProfiler::Scope>
HostProfiler::snapshot()
{
    using namespace prof_detail;
    auto &r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    ProfTree agg(/*registered=*/false);
    mergeInto(agg, &agg.root, &r.retired.root);
    for (const ProfTree *t : r.live)
        mergeInto(agg, &agg.root, &t->root);
    std::vector<Scope> out;
    std::string path;
    flatten(&agg.root, path, out);
    std::sort(out.begin(), out.end(),
              [](const Scope &a, const Scope &b) { return a.path < b.path; });
    return out;
}

void
HostProfiler::writeFolded(std::ostream &os)
{
    for (const Scope &s : snapshot())
        os << s.path << ' ' << s.selfNs << '\n';
}

void
HostProfiler::writeJson(JsonWriter &w, int indent)
{
    w.object(indent).key("scopes").array(indent + 2);
    for (const Scope &s : snapshot()) {
        w.object().field("path", s.path).field("count", s.count);
        w.field("wall_ns", s.wallNs).field("self_ns", s.selfNs).end();
    }
    w.end().end();
}

void
ProfScope::open(const char *name)
{
    using namespace prof_detail;
    ProfTree &t = threadTree();
    _node = t.child(t.cur, name);
    t.cur = _node;
    _start = std::chrono::steady_clock::now();
}

void
ProfScope::close()
{
    const auto end = std::chrono::steady_clock::now();
    const std::uint64_t dur = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - _start)
            .count());
    _node->count += 1;
    _node->wallNs += dur;
    prof_detail::threadTree().cur = _node->parent;
    if (HostProfiler::SliceSink sink = HostProfiler::sliceSink())
        [[unlikely]] {
        const std::uint64_t endNs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                end - HostProfiler::_origin)
                .count());
        sink(_node->name, endNs > dur ? endNs - dur : 0, dur);
    }
    _node = nullptr;
}

} // namespace limitless
