/**
 * @file
 * Power-of-two ring buffer that allocates on its first push.
 *
 * The simulator's per-node queues (the home's service queue, the IPI
 * input queue, the cache's waiting accesses, the store buffer) and the
 * mesh's flit FIFOs are empty almost all of the time. A std::deque
 * allocates a 64 B map and a 512 B block when it is constructed, before
 * anything is pushed, and its segmented iterators showed up hard in mesh
 * profiles. A Ring holds nothing until its first push, which allocates
 * the ring's first capacity in one block; after that it doubles when
 * full, so the common operations (empty / front / pop) stay a couple of
 * loads.
 */

#ifndef LIMITLESS_SIM_RING_HH
#define LIMITLESS_SIM_RING_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace limitless
{

/** FIFO ring with push_front for re-queueing at the head. */
template <typename T>
class Ring
{
  public:
    /** @param first_capacity slots the first push allocates, rounded up
     *  to a power of two */
    explicit Ring(std::size_t first_capacity = 8)
        : _first(static_cast<std::uint32_t>(std::bit_ceil(first_capacity)))
    {}

    Ring(const Ring &) = delete;
    Ring &operator=(const Ring &) = delete;

    Ring(Ring &&other) noexcept : _first(other._first) { swap(other); }

    Ring &
    operator=(Ring &&other) noexcept
    {
        Ring(std::move(other)).swap(*this);
        return *this;
    }

    ~Ring()
    {
        clear();
        release();
    }

    bool empty() const { return _count == 0; }
    std::size_t size() const { return _count; }
    /** Slots allocated: 0 before the first push. */
    std::size_t capacity() const { return _cap; }

    T &front() { return _buf[_head]; }
    const T &front() const { return _buf[_head]; }

    /** i-th element from the front. */
    T &operator[](std::size_t i) { return _buf[(_head + i) & (_cap - 1)]; }
    const T &
    operator[](std::size_t i) const
    {
        return _buf[(_head + i) & (_cap - 1)];
    }

    void
    push_back(T v)
    {
        if (_count == _cap)
            grow();
        std::construct_at(&_buf[(_head + _count) & (_cap - 1)],
                          std::move(v));
        ++_count;
    }

    void
    push_front(T v)
    {
        if (_count == _cap)
            grow();
        _head = (_head - 1) & (_cap - 1);
        std::construct_at(&_buf[_head], std::move(v));
        ++_count;
    }

    /** Callers check empty() first; this is on the mesh's hot path. */
    void
    pop_front()
    {
        std::destroy_at(&_buf[_head]);
        _head = (_head + 1) & (_cap - 1);
        --_count;
    }

    /** Drop every element; the allocation stays for the next push. */
    void
    clear()
    {
        while (_count != 0)
            pop_front();
        _head = 0;
    }

    void
    swap(Ring &other) noexcept
    {
        std::swap(_buf, other._buf);
        std::swap(_cap, other._cap);
        std::swap(_head, other._head);
        std::swap(_count, other._count);
        std::swap(_first, other._first);
    }

    /** Front-to-back iteration (range-for). */
    template <typename R, typename V>
    class Iter
    {
      public:
        Iter(R *ring, std::size_t i) : _ring(ring), _i(i) {}
        V &operator*() const { return (*_ring)[_i]; }
        Iter &operator++() { ++_i; return *this; }
        bool operator==(const Iter &) const = default;

      private:
        R *_ring;
        std::size_t _i;
    };

    using iterator = Iter<Ring, T>;
    using const_iterator = Iter<const Ring, const T>;

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, _count}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, _count}; }

  private:
    /** Allocate the first capacity, or unwrap into twice the capacity. */
    void
    grow()
    {
        const std::uint32_t cap = _cap ? 2 * _cap : _first;
        T *bigger = std::allocator<T>().allocate(cap);
        for (std::uint32_t i = 0; i < _count; ++i) {
            T &old = _buf[(_head + i) & (_cap - 1)];
            std::construct_at(&bigger[i], std::move(old));
            std::destroy_at(&old);
        }
        release();
        _buf = bigger;
        _cap = cap;
        _head = 0;
    }

    void
    release()
    {
        if (_buf)
            std::allocator<T>().deallocate(_buf, _cap);
    }

    T *_buf = nullptr;
    std::uint32_t _cap = 0;   ///< power of two, or 0 before the first push
    std::uint32_t _head = 0;
    std::uint32_t _count = 0;
    std::uint32_t _first;     ///< capacity of the first allocation
};

} // namespace limitless

#endif // LIMITLESS_SIM_RING_HH
