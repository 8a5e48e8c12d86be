/**
 * @file
 * Host-side hierarchical scoped profiler: where does the *simulator*
 * (not the simulated machine) spend its wall-clock time?
 *
 * Usage: drop `PROF_SCOPE("name")` at the top of a function or block.
 * Scopes nest into a per-thread call tree keyed by name; each node
 * accumulates call count and inclusive wall time.  When the profiler is
 * disabled (the default) a scope costs one relaxed atomic load and a
 * predictable branch — nothing is allocated and no clock is read, so
 * instrumented hot paths stay bit- and throughput-identical to an
 * uninstrumented build (the PR 5/6 overhead-guard discipline).
 *
 * Threading: every thread owns a private tree (thread-local, no locks
 * on the hot path).  Trees retire into a global aggregate under a mutex
 * when their thread exits, and HostProfiler::snapshot() folds retired
 * plus still-live trees.  Merging is by scope name and therefore
 * commutative — the aggregate is independent of thread join order, the
 * same property the PR 9 histogram shadows rely on.  Snapshot/reset
 * must only be called while no *other* profiled thread is running
 * (after joins), which is where the harness and parallel kernel call
 * them.
 *
 * Exports: collapsed-stack flamegraph lines ("a;b;c self_ns", sorted),
 * a stats-JSON `host_profile` block, and optional per-scope Chrome
 * trace slices through a process-wide sink hook (installed by the CLI
 * when `--trace-out` is active, so src/obs keeps zero dependency on the
 * trace stream).
 */

#ifndef LIMITLESS_OBS_HOST_PROFILER_HH
#define LIMITLESS_OBS_HOST_PROFILER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

namespace limitless
{

class JsonWriter;

namespace prof_detail
{

/** One scope in a per-thread call tree. Names are the string literals
 *  passed to PROF_SCOPE, so identity is usually pointer equality. */
struct ProfNode
{
    const char *name = nullptr;
    ProfNode *parent = nullptr;
    std::vector<ProfNode *> kids;
    std::uint64_t count = 0;
    std::uint64_t wallNs = 0;
};

/** A thread's private tree. The deque arena keeps node addresses
 *  stable while children are appended. */
struct ProfTree
{
    explicit ProfTree(bool registered = true);
    ~ProfTree();

    ProfNode *child(ProfNode *parent, const char *name);
    void clear();

    ProfNode root;
    ProfNode *cur = &root;
    std::deque<ProfNode> arena;
    bool registered;
};

ProfTree &threadTree();

} // namespace prof_detail

class HostProfiler
{
  public:
    /** Chrome-slice hook: called on scope exit with the scope name and
     *  its [start, start+dur) interval in ns since enable(). */
    using SliceSink = void (*)(const char *name, std::uint64_t startNs,
                               std::uint64_t durNs);

    static void enable();
    static void disable();

    static bool
    enabled()
    {
        return _on.load(std::memory_order_relaxed);
    }

    /** Drop all recorded data (retired and live trees). Test hook; the
     *  caller must guarantee no other thread has a scope open. */
    static void reset();

    static void setSliceSink(SliceSink sink);

    static SliceSink
    sliceSink()
    {
        return _sink.load(std::memory_order_relaxed);
    }

    /** ns since enable() on the steady clock (0 when disabled). */
    static std::uint64_t nowNs();

    /** One aggregated scope path ("machine.run;eq.burst"). */
    struct Scope
    {
        std::string path;
        std::uint64_t count = 0;
        std::uint64_t wallNs = 0;
        std::uint64_t selfNs = 0; ///< wall minus children, clamped >= 0
    };

    /** Merge every tree (retired + live) into flat rows sorted by
     *  path. Call only when no other profiled thread is running. */
    static std::vector<Scope> snapshot();

    /** Collapsed-stack flamegraph lines: "path self_ns\n", sorted. */
    static void writeFolded(std::ostream &os);

    /** Stats-JSON block {"scopes": [{...}, ...]}, its members one per
     *  line at @p indent. */
    static void writeJson(JsonWriter &w, int indent);

  private:
    friend struct prof_detail::ProfTree;
    friend class ProfScope;

    static inline std::atomic<bool> _on{false};
    static inline std::atomic<SliceSink> _sink{nullptr};
    static std::chrono::steady_clock::time_point _origin;
};

/** RAII scope guard behind the PROF_SCOPE macro. */
class ProfScope
{
  public:
    explicit ProfScope(const char *name)
    {
        if (HostProfiler::enabled()) [[unlikely]]
            open(name);
    }

    ~ProfScope()
    {
        if (_node) [[unlikely]]
            close();
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    void open(const char *name);
    void close();

    prof_detail::ProfNode *_node = nullptr;
    std::chrono::steady_clock::time_point _start;
};

} // namespace limitless

#ifdef LIMITLESS_NO_PROF
#define PROF_SCOPE(name) ((void)0)
#else
#define LIMITLESS_PROF_CAT2(a, b) a##b
#define LIMITLESS_PROF_CAT(a, b) LIMITLESS_PROF_CAT2(a, b)
#define PROF_SCOPE(name)                                                     \
    ::limitless::ProfScope LIMITLESS_PROF_CAT(prof_scope_, __LINE__)(name)
#endif

#endif // LIMITLESS_OBS_HOST_PROFILER_HH
